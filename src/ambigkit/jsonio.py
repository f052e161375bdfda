"""Atomic JSON/JSONL file helpers and the record codec.

Writers write a temp file and rename it, so a failing command leaves no
partial checkpoint. Output is UTF-8, LF-ended, keys in insertion order, so
identical inputs give identical bytes. Writing a NaN or infinite float (not
JSON) raises a DataIntegrityError naming the file and writes nothing. A path
that cannot be written (``output_file``), say in a missing directory, raises
a ConfigurationError naming it and leaves no temporary file. No writer makes
a directory; ``cli._run_stage`` does.

Every reader reads its file inside ``input_file``: a file that cannot be
read raises a ConfigurationError and one that is not UTF-8 a ParseError,
each naming the file. Readers take each field through ``typed_field``, which
checks its JSON type instead of coercing it, and refuses a string holding an
unpaired surrogate, which no UTF-8 file can hold, inside ``record_at``,
which turns a missing or malformed field, a key that no field names, or a
record that breaks its own invariant, into a ParseError naming the file and
the line, or the file alone for a file that is one JSON object (the run
config, ``read_json_object``) or one document (a toy fixture, a template).
Every file keyed by sample id is read with ``read_jsonl(path,
unique_ids=True)``, so a repeated id is a ParseError too.

A record dataclass is one JSON object, and its fields are the object's
columns: ``record_obj`` writes one, ``record_from`` reads it back by each
field's annotation through ``typed_field``; no other code reads annotations,
so a per-sample record and a config section follow the same rules. Field
metadata, only where a field needs it, says three things: ``column``, the
JSON name where it is not the field's name; ``optional``, the column is left
out of a line at the field's default; ``rest``, the field is a dict of the
line's other keys, written last. A column whose field has a default may be
absent, and one whose type admits None may be null.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import json
import math
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Iterable, Iterator, get_args, get_type_hints

from .errors import ConfigurationError, DataIntegrityError, ParseError


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    with output_file(path):
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
        raise ParseError(f"not UTF-8 text ({exc.reason})", where=path) from exc


@contextlib.contextmanager
def output_file(path: str | Path) -> Iterator[None]:
    """Write ``path``: an OSError becomes a ConfigurationError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc


# An unpaired surrogate: JSON can spell one ("\\ud800"), no UTF-8 file can hold it.
has_surrogate = re.compile("[\ud800-\udfff]").search


def read_jsonl(path: str | Path, *, unique_ids: bool = False) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) pairs; a malformed line raises a
    ParseError naming ``path`` and the line. With ``unique_ids``, so does a
    line whose string or integer ``id`` an earlier line already had, an
    integer counting as its string form."""
    seen: set[str] = set()
    with input_file(path), open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line_number, path) from exc
            if not isinstance(obj, dict):
                raise ParseError("record is not a JSON object", line_number, path)
            if unique_ids and type(obj.get("id")) in (str, int):
                record_id = str(obj["id"])
                if record_id in seen:
                    raise ParseError(f"duplicate id {record_id!r}", line_number, path)
                seen.add(record_id)
            yield line_number, obj


def read_json_object(path: str | Path) -> dict:
    """The JSON object that is the whole of ``path``. A file that is not
    JSON, or holds another JSON value, raises ParseError naming it."""
    with input_file(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", where=path) from exc
    if not isinstance(obj, dict):
        raise ParseError("not a JSON object", where=path)
    return obj


_REQUIRED = object()
# Accepted Python types and the name a message gives each field kind. No
# number kind takes a boolean, although bool is an int.
_KINDS = {
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
    int: ((int, float), "an integer"),
    float: ((int, float), "a finite number"),
    tuple: ((list,), "a list of strings"),
}
# How a message names a value it does not show.
_JSON_TYPES = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
               list: "an array", dict: "an object", type(None): "null"}


def typed_field(obj: dict, key: str, kind: type, default: Any = _REQUIRED) -> Any:
    """``obj[key]`` checked to be a JSON ``kind``: ``str``, ``bool``, ``int``
    (a whole number, ``3.0`` too), ``float`` (any finite number, returned as
    a float), ``tuple`` (an array of strings, returned as a tuple) or an enum
    (a string naming a member). An absent key gives ``default``, and KeyError
    when there is none; a field whose default is None may be null. A value of
    another type raises TypeError naming it, by its JSON type alone for a
    string field (an ``api_key`` is a secret), and a string that holds an
    unpaired surrogate, or names no member, ValueError listing the members."""
    if key not in obj and default is not _REQUIRED:
        return default
    value = obj[key]
    if value is None and default is None:
        return None
    if issubclass(kind, enum.Enum):
        allowed = [member.value for member in kind]
        if (text := typed_field(obj, key, str)) not in allowed:
            raise ValueError(f"field {key!r}: {text!r} is not one of {', '.join(allowed)}")
        return kind(text)
    types, name = _KINDS[kind]
    if type(value) in types:
        if kind is bool:
            return value
        if kind is int:
            if type(value) is int or value.is_integer():
                return int(value)
        elif kind is float:
            if math.isfinite(number := float(value)):
                return number
        else:
            strings = (value,) if kind is str else value
            if all(type(item) is str for item in strings):
                if any(map(has_surrogate, strings)):
                    raise ValueError(f"field {key!r} holds an unpaired surrogate")
                return value if kind is str else tuple(value)
    shown = _JSON_TYPES.get(type(value), "another type") if kind is str else f"{value!r:.60}"
    raise TypeError(f"field {key!r} must be {name}, got {shown}")


def refuse_unknown(keys: Iterable[object]) -> None:
    """Refuse ``keys``, the keys of a record that no field names: a misspelt
    optional field would otherwise read as absent."""
    if keys:
        raise ValueError(f"unknown field(s) {', '.join(sorted(map(repr, keys)))}")


@contextlib.contextmanager
def record_at(where: str | Path, line_number: int | None = None) -> Iterator[None]:
    """Read one record: a missing field (KeyError), a malformed one
    (TypeError, ValueError, OverflowError) or a record that breaks its own
    invariant (DataIntegrityError) becomes a ParseError naming ``where`` (the
    record's file, or what the record is) and its line, with the original
    error as its cause. A ParseError, already placed, passes unchanged."""
    try:
        yield
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"missing field {exc}", line_number, where) from exc
    except (TypeError, ValueError, OverflowError, DataIntegrityError) as exc:
        raise ParseError(str(exc), line_number, where) from exc


@functools.cache
def _columns(cls: type) -> tuple[tuple[dataclasses.Field, str, Any, bool], ...]:
    """Each field of the record class ``cls`` with its column name, its kind
    (``X | None`` as ``X``) and whether it may be None. A field type that the
    codec cannot read is a fault of the class, not of a file: NotImplementedError."""
    types = get_type_hints(cls)
    columns = []
    for f in dataclasses.fields(cls):
        kind, nullable = types[f.name], type(None) in get_args(types[f.name])
        if nullable:
            (kind,) = set(get_args(kind)) - {type(None)}
        kind = tuple if kind == tuple[str, ...] else kind
        if not (f.metadata.get("rest") or kind in _KINDS or dataclasses.is_dataclass(kind)
                or isinstance(kind, type) and issubclass(kind, enum.Enum)):
            raise NotImplementedError(f"{cls.__name__}.{f.name}: the record codec "
                                      f"cannot read a {kind!r}")
        columns.append((f, f.metadata.get("column", f.name), kind, nullable))
    return tuple(columns)


def record_obj(record: Any) -> dict:
    """The dataclass ``record`` as one line's object, its columns in field
    order: an enum as its value, a tuple as a list."""
    obj = {}
    for f, name, _, _ in _columns(type(record)):
        value = getattr(record, f.name)
        if f.metadata.get("rest"):
            obj.update(value)
        elif not (f.metadata.get("optional") and value == f.default):
            obj[name] = (value.value if isinstance(value, enum.Enum)
                         else list(value) if isinstance(value, tuple) else value)
    return obj


def record_from(cls: type, obj: dict) -> Any:
    """The ``cls`` record that ``obj``, one line's object, holds; read inside
    ``record_at``. A key that no column names is refused, unless a field takes
    the rest; a field whose type is a record class reads its own object."""
    values, columns = {}, _columns(cls)
    named = {name for f, name, _, _ in columns if not f.metadata.get("rest")}
    other = {key: value for key, value in obj.items() if key not in named}
    for f, name, kind, nullable in columns:
        if f.metadata.get("rest"):
            values[f.name], other = other, {}
        elif name in obj or (f.default is dataclasses.MISSING
                             and f.default_factory is dataclasses.MISSING):
            if nullable and obj[name] is None:
                values[f.name] = None
            elif dataclasses.is_dataclass(kind):
                if type(obj[name]) is not dict:
                    raise TypeError(f"field {name!r} must be an object")
                values[f.name] = record_from(kind, obj[name])
            else:
                values[f.name] = typed_field(obj, name, kind)
    refuse_unknown(other)
    return cls(**values)
