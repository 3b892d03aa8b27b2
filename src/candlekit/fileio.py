"""File reads and writes. Every input file is read through ``read_input``, which turns a
failed read into a CandlekitError, and its JSON is parsed by ``parse_json``. Every output
goes through ``write_atomic``, so a reader finds the old file or the new one, never a part,
except a dataset's: ``experiment.build_dataset`` writes its PPMs and ``manifest.jsonl`` with
``Path.write_bytes``/``write_text`` into a temp directory, then renames that into place."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import BadRow, ManifestError, SourceNotFound


def read_input(path: str | Path, what: str, read=Path.read_text):
    """``read(path)`` for an input file.

    SourceNotFound when it cannot be read (a path with a NUL byte included),
    BadRow when its text does not decode.
    """
    path = Path(path)
    try:
        return read(path)
    except UnicodeDecodeError as exc:  # a ValueError too, so it is caught first
        raise BadRow(f"{what} {str(path)!r} is not text: {exc}") from exc
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise SourceNotFound(f"{what} cannot be read: {str(path)!r}: {reason}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a key given twice is an error rather than the last one kept."""
    keys = [k for k, _v in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"an object repeats key {next(k for k in keys if keys.count(k) > 1)!r}")
    return dict(pairs)


def parse_json(data: str | bytes, what: str):
    """``json.loads`` rejecting a repeated key; ManifestError naming ``what`` for bad JSON, UTF-8 or nesting."""
    try:
        return json.loads(data, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"{what} is not valid JSON: {exc}") from exc


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
