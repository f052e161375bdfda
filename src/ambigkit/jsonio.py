"""Atomic JSON/JSONL file helpers.

All writers go through a temp-file-then-rename step so a failing command
never leaves a partial checkpoint behind. Output is UTF-8 with LF line
endings and insertion-ordered keys, giving byte-stable files for identical
inputs. A NaN or infinite float is not JSON: writing one raises a
DataIntegrityError that names the file, and nothing is written.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataIntegrityError, ParseError


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj: object, **kwargs) -> str:
    """Strict JSON: a NaN or infinite float raises ValueError."""
    return json.dumps(obj, ensure_ascii=False, allow_nan=False, **kwargs)


def _dump_to(path: str | Path, obj: object, **kwargs) -> str:
    try:
        return dump_json(obj, **kwargs)
    except ValueError as exc:
        raise DataIntegrityError(f"cannot write {path}: {exc}") from exc


def write_jsonl_atomic(path: str | Path, objs: Iterable[object]) -> int:
    """Write one JSON object per line; returns the line count."""
    lines = [_dump_to(path, o) for o in objs]
    text = "".join(line + "\n" for line in lines)
    write_text_atomic(path, text)
    return len(lines)


def write_json_atomic(path: str | Path, obj: object) -> None:
    write_text_atomic(path, _dump_to(path, obj, indent=2) + "\n")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) pairs; malformed lines raise ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line_number) from exc
            if not isinstance(obj, dict):
                raise ParseError("record is not a JSON object", line_number)
            yield line_number, obj
