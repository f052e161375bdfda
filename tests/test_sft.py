from __future__ import annotations

import json

import pytest

from ambigkit.corpus import QASample, load_templates
from ambigkit.errors import DataIntegrityError
from ambigkit.phrases import FIXED_CLARIFICATIONS
from ambigkit.pipeline import (
    ClarifyLabel,
    DisambiguationRecord,
    LabelKind,
    stage3_fixed_label,
)
from ambigkit.sft import SftRecord, Source, emit, verify

TEMPLATES = load_templates()
DIRECT = TEMPLATES["direct"]


def correct_sample(i: int, answers=None) -> QASample:
    sid = f"c{i:03d}"
    return QASample(id=sid, question=f"question {sid}?",
                    answers=tuple(answers or (f"gold {sid}", "alt")), gold_ambiguous=False)


def ambig_record(i: int) -> DisambiguationRecord:
    sid = f"a{i:03d}"
    return DisambiguationRecord(
        sample_id=sid, query_text=f"ambiguous {sid}?", disambig_text=f"specific {sid}?",
        h_query=1.0, h_disambig=0.2, info_gain=0.8,
    )


def fixed_labels(records, seed=0):
    return {r.sample_id: stage3_fixed_label(r.sample_id, seed) for r in records}


def test_emit_counts_and_balance(tmp_path):
    correct = [correct_sample(i) for i in range(300)]
    ambiguous = [ambig_record(i) for i in range(300)]
    path = tmp_path / "sft.jsonl"
    count = emit(correct, ambiguous, fixed_labels(ambiguous), DIRECT, path,
                 master_seed=0)
    assert count == 600
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 600
    sources = [json.loads(line)["source"] for line in lines]
    assert sources.count("ambig") == 300
    assert sources.count("correct") == 300


def test_emit_uses_first_gold_answer(tmp_path):
    correct = [correct_sample(0, answers=("Paris", "paris", "City of Light"))]
    ambiguous = [ambig_record(0)]
    path = tmp_path / "sft.jsonl"
    emit(correct, ambiguous, fixed_labels(ambiguous), DIRECT, path, master_seed=0)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    completion = next(r["completion"] for r in rows if r["source"] == "correct")
    assert completion == "Paris"


def test_emit_prompts_end_with_answer_cue(tmp_path):
    correct = [correct_sample(i) for i in range(3)]
    ambiguous = [ambig_record(i) for i in range(3)]
    path = tmp_path / "sft.jsonl"
    emit(correct, ambiguous, fixed_labels(ambiguous), DIRECT, path, master_seed=0)
    for line in path.read_text().splitlines():
        assert json.loads(line)["prompt"].endswith("\nAnswer:")


def test_emit_rerun_is_byte_identical(tmp_path):
    correct = [correct_sample(i) for i in range(10)]
    ambiguous = [ambig_record(i) for i in range(10)]
    labels = fixed_labels(ambiguous)
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    emit(correct, ambiguous, labels, DIRECT, path_a, master_seed=42)
    emit(correct, ambiguous, labels, DIRECT, path_b, master_seed=42)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_emit_order_is_seed_dependent(tmp_path):
    correct = [correct_sample(i) for i in range(10)]
    ambiguous = [ambig_record(i) for i in range(10)]
    labels = fixed_labels(ambiguous)
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    emit(correct, ambiguous, labels, DIRECT, path_a, master_seed=1)
    emit(correct, ambiguous, labels, DIRECT, path_b, master_seed=2)
    ids = lambda p: [json.loads(l)["id"] for l in p.read_text().splitlines()]
    assert sorted(ids(path_a)) == sorted(ids(path_b))
    assert ids(path_a) != ids(path_b)


def test_emit_rejects_imbalance(tmp_path):
    with pytest.raises(DataIntegrityError, match="balanced"):
        emit([correct_sample(0)], [], {}, DIRECT, tmp_path / "x.jsonl", master_seed=0)


def test_emit_rejects_missing_label(tmp_path):
    ambiguous = [ambig_record(0)]
    with pytest.raises(DataIntegrityError, match="a000"):
        emit([correct_sample(0)], ambiguous, {}, DIRECT, tmp_path / "x.jsonl",
             master_seed=0)


def test_emit_refuses_a_correct_sample_without_a_gold_answer(tmp_path):
    unanswered = QASample(id="c000", question="question c000?", answers=(),
                          gold_ambiguous=True)
    ambiguous = [ambig_record(0)]
    with pytest.raises(DataIntegrityError, match="sample c000: no gold answer to train on"):
        emit([unanswered], ambiguous, fixed_labels(ambiguous), DIRECT, tmp_path / "x.jsonl",
             master_seed=0)


def test_record_invariants():
    with pytest.raises(DataIntegrityError):
        SftRecord(id="x", prompt="p", completion="", source=Source.CORRECT)
    with pytest.raises(DataIntegrityError):
        SftRecord(id="x", prompt="p", completion="c", source=Source.AMBIG)
    with pytest.raises(DataIntegrityError):
        SftRecord(id="x", prompt="p", completion="c", source=Source.CORRECT,
                  clarify_kind=LabelKind.FIXED)


def emit_small(tmp_path, n=5, seed=0):
    correct = [correct_sample(i) for i in range(n)]
    ambiguous = [ambig_record(i) for i in range(n)]
    path = tmp_path / "sft.jsonl"
    emit(correct, ambiguous, fixed_labels(ambiguous, seed), DIRECT, path,
         master_seed=seed)
    return path


def test_verify_round_trip_clean(tmp_path):
    report = verify(emit_small(tmp_path))
    assert report.ok
    assert report.total == 10
    assert report.per_source["correct"] == report.per_source["ambig"] == 5
    assert report.per_kind["fixed"] == 5


def test_verify_flags_corrupted_completion(tmp_path):
    path = emit_small(tmp_path)
    lines = path.read_text().splitlines()
    index = next(
        i for i, l in enumerate(lines) if json.loads(l)["source"] == "correct"
    )
    row = json.loads(lines[index])
    row["completion"] = ""
    lines[index] = json.dumps(row)
    path.write_text("".join(l + "\n" for l in lines))
    report = verify(path)
    assert not report.ok
    [message] = report.failures
    assert f"{path} line {index + 1}:" in message
    assert "completion" in message


@pytest.mark.parametrize("source,patch,field", [
    ("correct", {"completion": ["paris"]}, "completion"),
    ("correct", {"completion": {"x": 1}}, "completion"),
    ("correct", {"id": None}, "id"),
    ("correct", {"prompt": 5}, "prompt"),
    ("correct", {"source": 1}, "source"),
    ("ambig", {"clarify_kind": 1}, "clarify_kind"),
], ids=["completion-list", "completion-object", "id-null", "prompt-number",
        "source-number", "clarify_kind-number"])
def test_verify_flags_mistyped_field(tmp_path, source, patch, field):
    path = emit_small(tmp_path)
    lines = path.read_text().splitlines()
    index = next(i for i, l in enumerate(lines) if json.loads(l)["source"] == source)
    lines[index] = json.dumps({**json.loads(lines[index]), **patch})
    path.write_text("".join(l + "\n" for l in lines))
    report = verify(path)
    [message] = [m for m in report.failures if f"line {index + 1}:" in m]
    assert f"field {field!r}" in message


def test_verify_flags_a_key_no_field_names(tmp_path):
    path = emit_small(tmp_path)
    first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(json.dumps({**json.loads(first), "kind": "fixed"}) + "\n" + "".join(rest))
    assert verify(path).failures == [f"{path} line 1: unknown field(s) 'kind'"]


def test_verify_gives_one_failure_per_bad_line(tmp_path):
    # An empty fixed completion is also not a canonical phrase: the line
    # still fails once, and its source still counts.
    path = emit_small(tmp_path)
    lines = path.read_text().splitlines()
    index = next(i for i, l in enumerate(lines) if json.loads(l)["source"] == "ambig")
    lines[index] = json.dumps({**json.loads(lines[index]), "completion": ""})
    path.write_text("".join(l + "\n" for l in lines))
    report = verify(path)
    [message] = report.failures
    assert f"line {index + 1}:" in message
    assert "empty completion" in message
    assert report.per_source["ambig"] == report.per_source["correct"] == 5


def test_verify_flags_imbalance(tmp_path):
    path = emit_small(tmp_path)
    lines = path.read_text().splitlines()
    extra = json.loads(next(l for l in lines if json.loads(l)["source"] == "correct"))
    extra["id"] = "extra1"
    lines.append(json.dumps(extra))
    path.write_text("".join(l + "\n" for l in lines))
    report = verify(path)
    assert not report.ok
    assert any("unbalanced" in message for message in report.failures)


def test_verify_flags_non_canonical_fixed_phrase(tmp_path):
    path = emit_small(tmp_path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        row = json.loads(line)
        if row["source"] == "ambig":
            row["completion"] = "Something else entirely."
            lines[i] = json.dumps(row)
            break
    path.write_text("".join(l + "\n" for l in lines))
    report = verify(path)
    assert any("canonical" in message for message in report.failures)


def test_verify_flags_generated_completion_that_does_not_clarify(tmp_path):
    path = emit_small(tmp_path)
    lines = path.read_text().splitlines()
    index = next(i for i, l in enumerate(lines) if json.loads(l)["source"] == "ambig")
    lines[index] = json.dumps({**json.loads(lines[index]), "completion": "Paris",
                               "clarify_kind": "generated"})
    path.write_text("".join(l + "\n" for l in lines))
    report = verify(path)
    [message] = report.failures
    assert message.startswith(f"{path} line {index + 1}: ")
    assert "not a clarification request" in message


def test_verify_flags_duplicate_ids(tmp_path):
    path = emit_small(tmp_path)
    lines = path.read_text().splitlines()
    lines.append(lines[0])
    path.write_text("".join(l + "\n" for l in lines))
    report = verify(path)
    assert any("duplicate" in message for message in report.failures)


def test_verify_reports_parse_failure_line(tmp_path):
    path = emit_small(tmp_path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{broken\n")
    report = verify(path)
    assert not report.ok


def test_verify_with_custom_cue(tmp_path, toy_templates):
    correct = [correct_sample(0)]
    ambiguous = [ambig_record(0)]
    path = tmp_path / "sft.jsonl"
    emit(correct, ambiguous, fixed_labels(ambiguous), toy_templates["direct"],
         path, master_seed=0)
    assert not verify(path).ok  # canonical cue does not match
    assert verify(path, answer_cue=toy_templates["direct"].answer_cue).ok


def test_generated_labels_round_through_emit(tmp_path):
    ambiguous = [ambig_record(0), ambig_record(1)]
    labels = {
        "a000": ClarifyLabel("a000", "Your question is ambiguous. Which year?",
                             LabelKind.GENERATED),
        "a001": stage3_fixed_label("a001", 0),
    }
    path = tmp_path / "sft.jsonl"
    emit([correct_sample(0), correct_sample(1)], ambiguous, labels, DIRECT, path,
         master_seed=0)
    report = verify(path)
    assert report.ok
    assert report.per_kind["generated"] == 1
    assert report.per_kind["fixed"] == 1
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    generated = next(r for r in rows if r.get("clarify_kind") == "generated")
    assert generated["completion"] not in FIXED_CLARIFICATIONS
