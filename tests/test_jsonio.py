from __future__ import annotations

import math

import pytest

import ambigkit.cli
from ambigkit.cli import main
from ambigkit.errors import ConfigurationError, DataIntegrityError, ParseError
from ambigkit.jsonio import (
    dump_json,
    record_at,
    typed_field,
    write_json_atomic,
    write_jsonl_atomic,
    write_text_atomic,
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dump_json_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        dump_json({"x": value})


@pytest.mark.parametrize("write", [
    lambda path: write_json_atomic(path, {"x": math.nan}),
    lambda path: write_jsonl_atomic(path, [{"x": 1.0}, {"x": math.nan}]),
])
def test_checkpoint_writers_name_the_file_and_write_nothing(tmp_path, write):
    path = tmp_path / "checkpoint.json"
    with pytest.raises(DataIntegrityError, match="checkpoint.json"):
        write(path)
    assert list(tmp_path.iterdir()) == []


def test_nan_reaching_a_checkpoint_exits_4(tmp_path, monkeypatch, capsys):
    summary = {"n": 1, "f1_u": {"mean": math.nan, "stddev": 0.0},
               "f1_a": {"mean": 0.5, "stddev": 0.0}}
    monkeypatch.setattr(ambigkit.cli, "_aggregate_reports", lambda paths: summary)
    config = tmp_path / "config.json"
    config.write_text('{"backend": {"kind": "toy", "fixture": "t.yaml"}, '
                      '"dataset": "d.jsonl", "workdir": "out"}')
    report = tmp_path / "agg.json"
    assert main(["--config", str(config), "eval", "--aggregate", "r.json",
                 "--report", str(report)]) == 4
    assert "agg.json" in capsys.readouterr().err
    assert not report.exists()


def test_writer_into_a_missing_directory_makes_none(tmp_path):
    path = tmp_path / "missing" / "checkpoint.jsonl"
    with pytest.raises(ConfigurationError, match=f"cannot write {path}: "):
        write_jsonl_atomic(path, [{"x": 1}])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind,value", [(str, "a\ud800"), (tuple, ["a", "\udc00"])],
                         ids=["string", "string-list"])
def test_typed_field_refuses_an_unpaired_surrogate(kind, value):
    with pytest.raises(ValueError, match="field 'x' holds an unpaired surrogate"):
        typed_field({"x": value}, "x", kind)


@pytest.mark.parametrize("target", ["taken", "file/sub.json"], ids=["directory", "under-a-file"])
def test_unwritable_path_is_a_configuration_error_naming_it(tmp_path, target):
    (tmp_path / "taken").mkdir()
    (tmp_path / "file").write_text("")
    path = tmp_path / target
    with pytest.raises(ConfigurationError, match=f"cannot write {path}: "):
        write_text_atomic(path, "x")
    assert not list(tmp_path.rglob("*.tmp"))


def test_record_at_passes_a_placed_parse_error_unchanged():
    placed = ParseError("bad value", 3, "inner.jsonl")
    with pytest.raises(ParseError) as excinfo:
        with record_at("outer.jsonl", 7):
            raise placed
    assert excinfo.value is placed
    assert str(placed) == "inner.jsonl line 3: bad value"


@pytest.mark.parametrize("value", [True, False])
def test_typed_field_reads_a_boolean_as_itself(value):
    assert typed_field({"x": value}, "x", bool) is value


@pytest.mark.parametrize("value", [1, "true"], ids=["one", "text"])
def test_typed_field_refuses_a_boolean_of_another_type(value):
    with pytest.raises(TypeError, match="field 'x' must be a boolean"):
        typed_field({"x": value}, "x", bool)
