"""Atomic file writes: a reader finds the old file or the new one, never a part."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Write ``data`` (text as UTF-8) to a temp file beside ``path``, then rename it over.

    ``os.replace`` within one directory is atomic, so a write that fails
    part-way leaves any previous file as it was; the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
