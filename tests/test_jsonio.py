from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ambigkit.cli
from ambigkit.cli import main
from ambigkit.config import BackendSpec, RunConfig, SampleRepConfig
from ambigkit.corpus import QASample
from ambigkit.errors import ConfigurationError, DataIntegrityError, ParseError
from ambigkit.evalkit import Errored, PerSampleOutcome, PredictionRecord
from ambigkit.jsonio import (
    _columns,
    dump_json,
    record_at,
    record_from,
    record_obj,
    typed_field,
    write_json_atomic,
    write_jsonl_atomic,
    write_text_atomic,
)
from ambigkit.phrases import FIXED_CLARIFICATIONS
from ambigkit.pipeline import AssessedSample, ClarifyLabel, DisambiguationRecord, LabelKind
from ambigkit.sft import SftRecord, Source


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


# -- the record codec ----------------------------------------------------------

texts = st.text(max_size=12)
blank_free = texts.filter(str.strip)
numbers = st.floats(-1e6, 1e6, allow_nan=False)
flag_lists = st.lists(texts, max_size=3).map(tuple)
json_values = st.none() | st.booleans() | st.integers() | numbers | texts


@st.composite
def disambiguation_records(draw):
    h_query, h_disambig = draw(numbers), draw(numbers)
    return DisambiguationRecord(draw(texts), draw(texts), draw(texts),
                                h_query, h_disambig, h_query - h_disambig)


@st.composite
def clarify_labels(draw):
    kind = draw(st.sampled_from(LabelKind))
    text = draw(st.sampled_from(FIXED_CLARIFICATIONS) if kind is LabelKind.FIXED
                else texts.map(lambda t: t + " unclear?"))
    return ClarifyLabel(draw(texts), text, kind, draw(flag_lists))


@st.composite
def sft_records(draw):
    label = draw(clarify_labels() | st.none())
    if label is None:
        return SftRecord(draw(texts), draw(texts), draw(blank_free), Source.CORRECT)
    return SftRecord(label.sample_id, draw(texts), label.text, Source.AMBIG, label.kind)


@st.composite
def qa_samples(draw):
    answers = draw(st.lists(blank_free, max_size=3).map(tuple))
    ambiguous = draw(st.sampled_from([None, True] + ([False] if answers else [])))
    return QASample(draw(texts.filter(bool)), draw(blank_free), answers, ambiguous, draw(texts))


prediction_records = st.builds(
    PredictionRecord, texts, texts, error=st.none() | texts.filter(bool), flags=flag_lists,
    extras=st.dictionaries(texts.filter(lambda key: key not in ("id", "prediction", "error",
                                                                "flags")),
                           json_values, max_size=3))
outcome_rows = st.builds(PerSampleOutcome, texts, st.none() | st.integers(1, 5),
                         st.none() | st.floats(0, 1), texts, st.none() | texts.filter(bool))


@given(st.one_of(disambiguation_records(), clarify_labels(), prediction_records,
                 sft_records(), qa_samples(), outcome_rows))
def test_record_codec_round_trips_through_a_json_line(record):
    obj = record_obj(record)
    assert record_from(type(record), obj) == record
    assert record_from(type(record), json.loads(dump_json(obj))) == record


def test_record_obj_leaves_optional_columns_out_at_their_default():
    errored = PredictionRecord("s1", "", error="timeout", flags=("retried",),
                               extras={"greedy": "x"})
    assert record_obj(errored) == {"id": "s1", "prediction": "", "error": "timeout",
                                   "flags": ["retried"], "greedy": "x"}
    assert record_obj(PredictionRecord("s1", "a")) == {"id": "s1", "prediction": "a"}
    sample = QASample("s1", "q?", ("a",))
    assert record_obj(sample) == {"id": "s1", "question": "q?", "answers": ["a"],
                                  "source": ""}
    assert record_from(QASample, record_obj(sample)) == sample
    assert record_obj(PerSampleOutcome("s1", None, None, "", "timeout"))["error"] == "timeout"
    assert "error" not in record_obj(PerSampleOutcome("s1", 3, 1.0, "a"))


@pytest.mark.parametrize("patch,message", [
    ({"kind": 1}, "field 'kind' must be a string"),
    ({"kind": "maybe"}, "field 'kind': 'maybe' is not one of fixed, generated"),
    ({"kind": None}, "field 'kind' must be a string"),
    ({"id": 5}, "field 'id' must be a string"),
], ids=["kind-number", "kind-unknown", "kind-null", "id-number"])
def test_record_from_refuses_a_bad_column(patch, message):
    obj = {"id": "s1", "text": "Your question is not clear.", "kind": "fixed", **patch}
    with pytest.raises(ParseError, match=f"labels.jsonl line 1: .*{message}"):
        with record_at("labels.jsonl", 1):
            record_from(ClarifyLabel, obj)


def test_record_from_reads_a_missing_column_by_its_default():
    obj = {"id": "s1", "text": "Your question is not clear.", "kind": "fixed"}
    assert record_from(ClarifyLabel, obj).flags == ()
    with pytest.raises(KeyError, match="kind"):
        record_from(ClarifyLabel, {"id": "s1", "text": "Your question is not clear."})


@pytest.mark.parametrize("cls", [RunConfig, BackendSpec, SampleRepConfig, QASample,
                                 DisambiguationRecord, ClarifyLabel, PredictionRecord,
                                 SftRecord, PerSampleOutcome, AssessedSample, Errored],
                         ids=lambda cls: cls.__name__)
def test_every_record_class_has_only_field_types_the_codec_reads(cls):
    assert [f for f, *_ in _columns(cls)] == list(dataclasses.fields(cls))


@pytest.mark.parametrize("annotation", ["dict", "list[str]", "tuple[int, ...]", "bytes"])
def test_a_field_type_the_codec_cannot_read_fails_naming_the_field(annotation):
    odd = dataclasses.make_dataclass("Odd", [("id", str), ("table", annotation)])
    # Not a ParseError: the fault is the class's, not the file's.
    with pytest.raises(NotImplementedError, match="Odd.table: the record codec cannot read"):
        with record_at("odd.jsonl", 1):
            record_from(odd, {"id": "s1", "table": {}})


@pytest.mark.parametrize("value,expected", [(3, 3), (3.0, 3), (-2.0, -2)])
def test_typed_field_reads_a_whole_number_as_an_integer(value, expected):
    assert type(typed_field({"x": value}, "x", int)) is int
    assert typed_field({"x": value}, "x", int) == expected


def test_a_string_field_names_a_bad_value_by_its_json_type_only():
    for value, name in [(5, "a number"), (["sk-1"], "an array"), ({"k": "sk-1"}, "an object"),
                        (None, "null"), (True, "a boolean")]:
        with pytest.raises(TypeError) as excinfo:
            typed_field({"api_key": value}, "api_key", str)
        assert str(excinfo.value) == f"field 'api_key' must be a string, got {name}"


def test_record_from_refuses_a_key_no_column_names_unless_a_field_takes_the_rest():
    obj = {"id": "s1", "text": "Your question is not clear.", "kind": "fixed", "flag": []}
    with pytest.raises(ValueError, match=r"^unknown field\(s\) 'flag'$"):
        record_from(ClarifyLabel, obj)
    assert record_from(PredictionRecord, {"id": "s1", "prediction": "a", "flag": []}).extras == {
        "flag": []}
