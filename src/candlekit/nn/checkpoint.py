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
    """A stream's arrays; MalformedHeader for a wrong magic or version, CorruptCheckpoint if it does not decode."""
    if data[:4] != MAGIC:
        raise MalformedHeader("not a checkpoint stream")
    try:
        version, count = struct.unpack_from("<II", data, 4)
        if version != VERSION:
            raise MalformedHeader(f"unsupported checkpoint version {version}")
        pos = 12
        arrays: list[np.ndarray] = []
        for _ in range(count):
            (ndim,) = struct.unpack_from("<I", data, pos)
            dims = struct.unpack_from(f"<{ndim}I", data, pos + 4)
            pos += 4 + 4 * ndim
            arrays.append(np.frombuffer(data, "<f4", math.prod(dims), pos).reshape(dims).copy())
            pos += arrays[-1].nbytes
    except (struct.error, ValueError, OverflowError) as exc:  # short, over 64 dims, or too big for numpy
        raise CorruptCheckpoint(f"checkpoint stream does not decode: {exc}") from exc
    if pos != len(data):
        raise CorruptCheckpoint(f"{len(data) - pos} bytes after the last checkpoint array")
    return arrays


def save_arrays(path: str | Path, arrays: list[np.ndarray]) -> None:
    write_atomic(path, arrays_to_bytes(arrays))


def load_arrays(path: str | Path) -> list[np.ndarray]:
    return bytes_to_arrays(read_input(path, "checkpoint", Path.read_bytes))
