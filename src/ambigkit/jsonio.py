"""Atomic JSON/JSONL file helpers.

All writers go through a temp-file-then-rename step so a failing command
never leaves a partial checkpoint behind. Output is UTF-8 with LF line
endings and insertion-ordered keys, giving byte-stable files for identical
inputs. A NaN or infinite float is not JSON: writing one raises a
DataIntegrityError that names the file, and nothing is written.

Every reader reads its file inside ``input_file``: a file that cannot be
read raises a ConfigurationError and one that is not UTF-8 a ParseError,
each naming the file. Readers take each field through ``typed_field``,
which checks the field's JSON type instead of coercing it, inside
``record_at``, which turns a missing or malformed field into a ParseError
naming the line, or the file for a file that is one JSON object
(``read_json_object``).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import ConfigurationError, DataIntegrityError, ParseError


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


@contextlib.contextmanager
def input_file(path: str | Path) -> Iterator[None]:
    """Read the input file ``path``: an OSError (a missing file, say) becomes
    a ConfigurationError and a UnicodeDecodeError a ParseError, each naming
    ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) pairs; malformed lines raise ParseError."""
    with input_file(path), open(path, "r", encoding="utf-8") as fh:
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


def read_json_object(path: str | Path) -> dict:
    """The JSON object that is the whole of ``path``. A file that is not
    JSON, or holds another JSON value, raises ParseError naming it."""
    with input_file(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: not a JSON object")
    return obj


_REQUIRED = object()
# Accepted Python types and the name a message gives each field kind. No
# number kind takes a boolean, although bool is an int.
_KINDS = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a finite number"),
    tuple: ((list,), "a list of strings"),
}


def typed_field(obj: dict, key: str, kind: type, default: Any = _REQUIRED) -> Any:
    """``obj[key]`` checked to be a JSON ``kind``: ``str``, ``int``, ``float``
    (any finite number, returned as a float) or ``tuple`` (an array of
    strings, returned as a tuple). An absent key gives ``default``, and
    KeyError when there is none; a field whose default is None may be null.
    A value of another type raises TypeError."""
    if key not in obj and default is not _REQUIRED:
        return default
    value = obj[key]
    if value is None and default is None:
        return None
    types, name = _KINDS[kind]
    if type(value) in types:
        if kind is str or kind is int:
            return value
        if kind is tuple and all(type(item) is str for item in value):
            return tuple(value)
        if kind is float and math.isfinite(number := float(value)):
            return number
    raise TypeError(f"field {key!r} must be {name}, got {value!r:.60}")


@contextlib.contextmanager
def record_at(where: int | str | Path) -> Iterator[None]:
    """Read one record: a missing field (KeyError) or a malformed one
    (TypeError, ValueError, OverflowError) becomes a ParseError naming
    ``where``, a line number or the file the record is."""
    line, prefix = (where, "") if isinstance(where, int) else (None, f"{where}: ")
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{prefix}missing field {exc}", line) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{prefix}{exc}", line) from exc
