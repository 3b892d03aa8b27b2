"""Versioned binary checkpoints.

Layout (all integers little-endian unsigned 32-bit):

    bytes 0-3   magic b"CKPT"
    u32         format version (1)
    u32         array count
    per array:  u32 ndim, u32 * ndim dims, float32 LE values (row-major)

Arrays are stored as float32, matching the training dtype, so
save -> load is bit-exact.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..errors import CorruptCheckpoint, MalformedHeader
from ..fileio import read_input, write_atomic

MAGIC = b"CKPT"
VERSION = 1


def arrays_to_bytes(arrays: list[np.ndarray]) -> bytes:
    parts = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for a in arrays:
        # asarray, not ascontiguousarray: the latter turns a 0-d array into
        # shape (1,). tobytes() writes row-major whatever the memory layout.
        a32 = np.asarray(a, dtype="<f4")
        parts.append(struct.pack("<I", a32.ndim))
        parts.append(struct.pack(f"<{a32.ndim}I", *a32.shape))
        parts.append(a32.tobytes())
    return b"".join(parts)


def bytes_to_arrays(data: bytes) -> list[np.ndarray]:
    if data[:4] != MAGIC:
        raise MalformedHeader("not a checkpoint stream")
    if len(data) < 12:
        raise CorruptCheckpoint("checkpoint truncated in stream header")
    version, count = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise MalformedHeader(f"unsupported checkpoint version {version}")
    pos = 12
    arrays: list[np.ndarray] = []
    for _ in range(count):
        if pos + 4 > len(data):
            raise CorruptCheckpoint("checkpoint truncated in array header")
        (ndim,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if pos + 4 * ndim > len(data):
            raise CorruptCheckpoint("checkpoint truncated in dims")
        dims = struct.unpack_from(f"<{ndim}I", data, pos)
        pos += 4 * ndim
        n_bytes = 4 * math.prod(dims)
        if pos + n_bytes > len(data):
            raise CorruptCheckpoint("checkpoint truncated in values")
        arr = np.frombuffer(data[pos : pos + n_bytes], dtype="<f4").reshape(dims).copy()
        arrays.append(arr)
        pos += n_bytes
    if pos != len(data):
        raise CorruptCheckpoint(f"{len(data) - pos} bytes after the last checkpoint array")
    return arrays


def save_arrays(path: str | Path, arrays: list[np.ndarray]) -> None:
    write_atomic(path, arrays_to_bytes(arrays))


def load_arrays(path: str | Path) -> list[np.ndarray]:
    return bytes_to_arrays(read_input(path, "checkpoint", Path.read_bytes))
