from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambigkit.backend import GenerationParams
from ambigkit.corpus import (
    PromptTemplate,
    QASample,
    ambiguate,
    load_dataset,
    load_templates,
    read_allowlist,
    template_fingerprints,
    trim_continuation,
)
from ambigkit.errors import (
    ConfigurationError,
    DataIntegrityError,
    ParseError,
    TemplateError,
)
from ambigkit.jsonio import record_obj, write_jsonl_atomic

from helpers import ScriptedBackend


# -- dataset I/O ----------------------------------------------------------------


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_load_preserves_order(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"id": "a", "question": "qa?", "answers": ["x"]}),
        json.dumps({"id": "b", "question": "qb?", "answers": [], "ambiguous": True}),
        json.dumps({"id": "c", "question": "qc?", "answers": ["y", "z"]}),
    ])
    samples = load_dataset(path)
    assert [s.id for s in samples] == ["a", "b", "c"]
    assert samples[1].gold_ambiguous is True
    assert samples[2].answers == ("y", "z")


def test_unambiguous_needs_answers(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"id": "a", "question": "q?", "answers": [], "ambiguous": False}),
    ])
    with pytest.raises(DataIntegrityError):
        load_dataset(path)


@pytest.mark.parametrize("patch, field", [
    ({"question": "  \t "}, "question"),
    ({"answers": ["", "ans"]}, "an answer"),
], ids=["question", "answer"])
def test_blank_text_is_refused_naming_the_sample(tmp_path, patch, field):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"id": "a", "question": "qa?", "answers": ["x"]}),
        json.dumps({"id": "b", "question": "qb?", "answers": ["y"], **patch}),
    ])
    with pytest.raises(DataIntegrityError, match=f"sample b: {field} must not be blank"):
        load_dataset(path)


def test_empty_file_is_empty_list(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_dataset(path) == []


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"id": "a", "question": "q?", "answers": ["x"]}),
        "{not json",
    ])
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path)


@pytest.mark.parametrize("patch", [
    {"answers": "paris"},
    {"answers": [["x"]]},
    {"answers": [5]},
    {"id": None},
    {"id": True},
    {"id": ["a"]},
    {"id": {"a": 1}},
    {"question": None},
], ids=["answers-string", "answer-list", "answer-number", "id-null", "id-bool",
        "id-list", "id-object", "question-null"])
def test_mistyped_field_is_parse_error(tmp_path, patch):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"id": "a", "question": "q?", "answers": ["x"]}),
        json.dumps({"id": "b", "question": "q?", "answers": ["x"], **patch}),
    ])
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path)


@pytest.mark.parametrize("patch,field", [
    ({"id": "b\ud800"}, "id"),
    ({"question": "q\udfff?"}, "question"),
    ({"answers": ["x", "\ud800y"]}, "answers"),
], ids=["id", "question", "answers"])
def test_unpaired_surrogate_is_parse_error(tmp_path, patch, field):
    # Valid JSON, but no UTF-8 checkpoint could hold the decoded string.
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        json.dumps({"id": "a", "question": "q?", "answers": ["x"]}),
        json.dumps({"id": "b", "question": "q?", "answers": ["x"], **patch}),
    ])
    with pytest.raises(ParseError, match=f"line 2: field '{field}' holds an unpaired surrogate"):
        load_dataset(path)


def test_integer_id_loads_as_its_string_form(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [json.dumps({"id": 7, "question": "q?", "answers": ["x"]})])
    assert load_dataset(path)[0].id == "7"


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    record = json.dumps({"id": "a", "question": "q?", "answers": ["x"]})
    write_lines(path, [record, record])
    with pytest.raises(DataIntegrityError, match="duplicate"):
        load_dataset(path)


def test_save_load_round_trip(tmp_path, corpus_samples):
    path = tmp_path / "round.jsonl"
    write_jsonl_atomic(path, map(record_obj, corpus_samples))
    assert load_dataset(path) == corpus_samples


# -- templates --------------------------------------------------------------------


def test_direct_template_renders_exactly():
    templates = load_templates()
    assert templates["direct"].render(question="Who won?") == (
        "Answer the following question.\nQuestion: Who won?\nAnswer:"
    )


def test_all_canonical_templates_load():
    templates = load_templates()
    assert set(templates) == {
        "direct", "disambiguation", "clarification", "ambiguity_aware",
        "self_ask", "ambiguate", "ambiguation_validation",
    }
    fingerprints = template_fingerprints(templates)
    assert all(len(h) == 64 for h in fingerprints.values())


def test_disambiguation_template_keeps_few_shot_block():
    body = load_templates()["disambiguation"].body
    assert "When did the Frozen ride open at Epcot?" in body
    assert body.endswith("Input Question: <question>\nDisambiguation:")


def test_clarification_template_has_both_slots():
    rendered = load_templates()["clarification"].render(
        question="Who won?", disambiguation="Who won the cup final?"
    )
    assert "Ambiguous Question: Who won?" in rendered
    assert "Disambiguation: Who won the cup final?" in rendered
    assert rendered.endswith("Clarification Request:")


def test_slot_value_containing_marker_not_recursed():
    template = PromptTemplate(
        name="t", body="A <question> B <disambiguation> C",
        slots={"question": "<question>", "disambiguation": "<disambiguation>"},
    )
    rendered = template.render(question="<disambiguation>", disambiguation="x")
    assert rendered == "A <disambiguation> B x C"


def test_template_without_slots_renders_its_body():
    assert PromptTemplate(name="t", body="Say hello.").render() == "Say hello."


def test_missing_slot_is_an_error():
    template = load_templates()["clarification"]
    with pytest.raises(TemplateError, match="disambiguation"):
        template.render(question="Who won?")


def test_unknown_slot_is_an_error():
    template = load_templates()["direct"]
    with pytest.raises(TemplateError, match="bogus"):
        template.render(question="q", bogus="x")


def test_marker_must_appear_exactly_once():
    with pytest.raises(TemplateError):
        PromptTemplate(name="bad", body="<q> and <q>", slots={"q": "<q>"})
    with pytest.raises(TemplateError):
        PromptTemplate(name="bad", body="no marker", slots={"q": "<q>"})


def test_missing_template_file_is_config_error(tmp_path):
    with pytest.raises(ConfigurationError):
        load_templates(tmp_path)


def test_template_file_not_utf8_is_parse_error(tmp_path):
    (tmp_path / "direct.txt").write_bytes(b"Q: <question>\nA:")
    (tmp_path / "disambiguation.txt").write_bytes(b"caf\xe9 <question>")
    with pytest.raises(ParseError, match="disambiguation.txt"):
        load_templates(tmp_path)


def test_template_files_ending_in_a_newline_render_as_the_packaged_ones(tmp_path):
    packaged = load_templates()
    for name, template in packaged.items():
        (tmp_path / f"{name}.txt").write_text(template.body + "\n", encoding="utf-8")
    custom = load_templates(tmp_path)
    for name, template in packaged.items():
        values = {slot: f"[{slot}]" for slot in template.slots}
        assert custom[name].render(**values) == template.render(**values)


def test_answer_cue():
    templates = load_templates()
    assert templates["direct"].answer_cue == "\nAnswer:"
    assert templates["clarification"].answer_cue == "\nClarification Request:"


@given(st.text(alphabet="abc d", min_size=1, max_size=12),
       st.text(alphabet="abc d", min_size=1, max_size=12))
def test_render_injective_in_question(q1, q2):
    template = load_templates()["direct"]
    if q1 != q2:
        assert template.render(question=q1) != template.render(question=q2)


# -- trimming -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        (" answer \nnext line", "answer"),
        ("answer", "answer"),
        ("\nleading", ""),
        ("  ", ""),
    ],
)
def test_trim_continuation(raw, expected):
    assert trim_continuation(raw) == expected


# -- ambiguation -------------------------------------------------------------------


def q(question, sid="a1", ambiguous=False, answers=("g",)):
    return QASample(id=sid, question=question, answers=tuple(answers),
                    gold_ambiguous=ambiguous)


def test_ambiguate_returns_trimmed_candidate(toy_templates):
    prompt = toy_templates["ambiguate"].render(question="Who wrote the novel?")
    backend = ScriptedBackend(exact={prompt: " Who wrote a novel? \nJunk"},
                              default="Yes")
    sample = q("Who wrote the novel?")
    accepted, rejects = ambiguate([sample], backend, toy_templates,
                                  GenerationParams())
    assert accepted == [QASample(id="a1", question="Who wrote a novel?",
                                 answers=("g",), gold_ambiguous=True)]
    assert rejects == []


def test_ambiguate_discards_empty_generation(toy_templates):
    backend = ScriptedBackend(default="")
    accepted, rejects = ambiguate([q("Whatever?")], backend, toy_templates,
                                  GenerationParams())
    assert accepted == []
    assert rejects == [{"id": "a1", "reason": "empty_generation"}]
    assert len(backend.calls) == 1  # no validation without a candidate


@pytest.mark.parametrize(
    "reply,expected",
    [
        ("Yes", True),
        ("Yes.", True),
        ("yes it is", True),
        ("No.", False),
        ("Maybe yes", False),
        ("", False),
    ],
)
def test_validate_ambiguation_first_word_rule(toy_templates, reply, expected):
    prompt = toy_templates["ambiguate"].render(question="q?")
    backend = ScriptedBackend(exact={prompt: "candidate?"}, default=reply)
    accepted, rejects = ambiguate([q("q?")], backend, toy_templates,
                                  GenerationParams())
    if expected:
        assert [(s.question, s.gold_ambiguous) for s in accepted] == [("candidate?", True)]
        assert rejects == []
    else:
        assert accepted == []
        assert rejects == [{"id": "a1", "reason": "validation_failed",
                            "candidate": "candidate?"}]


def test_ambiguate_keeps_input_order(toy_templates):
    samples = [q(f"q{i}?", sid=f"s{i}") for i in range(6)]
    # Even samples rewrite to nothing; odd ones are validated.
    rules = [(f"q{i}?", "" if i % 2 == 0 else f"amb{i}?") for i in range(6)]
    backend = ScriptedBackend(rules=[("amb1?", "No"), *rules], default="Yes")
    backend.parallelism = 3
    accepted, rejects = ambiguate(samples, backend, toy_templates,
                                  GenerationParams())
    assert [s.id for s in accepted] == ["s3", "s5"]
    assert [(r["id"], r["reason"]) for r in rejects] == [
        ("s0", "empty_generation"), ("s1", "validation_failed"),
        ("s2", "empty_generation"), ("s4", "empty_generation"),
    ]


def test_allowlist_filter(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("s3\ns1\n\n", encoding="utf-8")
    assert read_allowlist(path) == {"s1", "s3"}
