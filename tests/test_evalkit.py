from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambigkit.backend import GenerationParams
from ambigkit.corpus import QASample, load_dataset, load_templates
from ambigkit.errors import DataIntegrityError
from ambigkit.evalkit import (
    OutcomeCounts,
    PredictionRecord,
    categorize,
    evaluate,
    f1_ambig,
    f1_unambig,
    is_clarification,
    mcr,
    read_predictions,
    rouge_l,
    run_ambig_aware,
    run_direct,
    run_sample_rep,
    run_self_ask,
    write_predictions,
)
from ambigkit.phrases import FIXED_CLARIFICATIONS

from helpers import ScriptedBackend, rouge_oracle


def sample(ambiguous: bool, answers=("gold",), sid="x1"):
    return QASample(id=sid, question="who?", answers=tuple(answers),
                    gold_ambiguous=ambiguous)


# -- rouge --------------------------------------------------------------------


def test_rouge_identical_strings():
    assert rouge_l("the cat sat", ["the cat sat"]) == 1.0


def test_rouge_worked_example():
    score = rouge_l("the revolution began in 1917", ["1917"])
    assert score == pytest.approx(1 / 3, abs=1e-4)
    assert score > 0.3  # correct at the evaluation threshold


def test_rouge_disjoint_is_zero():
    assert rouge_l("paris", ["london"]) == 0.0


def test_rouge_takes_best_reference():
    assert rouge_l("a b c", ["z", "a b c"]) == 1.0


def test_rouge_normalizes_case_and_punctuation():
    assert rouge_l("George Washington.", ["george washington"]) == 1.0


def test_rouge_empty_prediction_scores_zero():
    assert rouge_l("", ["gold"]) == 0.0
    assert rouge_l("...", ["gold"]) == 0.0


def test_rouge_requires_references():
    with pytest.raises(ValueError):
        rouge_l("anything", [])


def test_rouge_matches_independent_oracle():
    rng = random.Random(1234)
    alphabet = list("abcde")
    for _ in range(100):
        pred = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        refs = [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
            for _ in range(rng.randint(1, 3))
        ]
        got = rouge_l(" ".join(pred), [" ".join(r) for r in refs])
        assert got == pytest.approx(rouge_oracle(pred, refs), abs=1e-12)


@given(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
    st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
)
def test_rouge_f_symmetric_under_swap(a, b):
    # Swapping prediction and reference swaps P and R but leaves F unchanged.
    left = rouge_l(" ".join(a), [" ".join(b)])
    right = rouge_l(" ".join(b), [" ".join(a)])
    assert left == pytest.approx(right, abs=1e-12)


# -- clarification detection -----------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Your question is ambiguous.", True),
        ("George Washington", False),
        ("CLARIFY please", True),
        ("That is unclear to me", True),
        ("I am not sure about this", True),
        ("", False),
    ],
)
def test_is_clarification(text, expected):
    assert is_clarification(text) is expected


def test_every_fixed_phrase_detected():
    for phrase in FIXED_CLARIFICATIONS:
        assert is_clarification(phrase)


# -- categorization ---------------------------------------------------------------


def test_categorize_ambiguous_clarification_is_one():
    assert categorize(sample(True), "Can you clarify your question?") == 1


def test_categorize_ambiguous_answer_is_two():
    assert categorize(sample(True), "some guess") == 2


def test_categorize_unambiguous_correct_is_three():
    assert categorize(sample(False, ["George Washington"]), "george washington") == 3


def test_categorize_unambiguous_wrong_is_four():
    assert categorize(sample(False, ["paris"]), "london") == 4


def test_categorize_unambiguous_clarification_is_five():
    assert categorize(sample(False), "The question is ambiguous.") == 5


def test_clarification_check_precedes_matching():
    # Prediction contains the gold answer but also a marker: category 5 wins.
    assert categorize(sample(False, ["doubt"]), "doubt") == 5


def test_categorize_requires_gold_label():
    s = QASample(id="u", question="q?", answers=("a",), gold_ambiguous=None)
    with pytest.raises(DataIntegrityError):
        categorize(s, "a")


def test_categorize_total_over_any_string():
    for ambiguous in (True, False):
        for text in ("", "plain", "ambiguous!", "gold"):
            category = categorize(sample(ambiguous, ["gold"]), text)
            assert category in ((1, 2) if ambiguous else (3, 4, 5))


# -- F1 metrics --------------------------------------------------------------------


def test_f1_unambig_fixture():
    counts = OutcomeCounts(c2=5, c3=40, c4=5, c5=5)
    assert f1_unambig(counts) == pytest.approx(0.8, abs=1e-9)


def test_f1_unambig_zero_numerator():
    assert f1_unambig(OutcomeCounts(c2=3, c4=2, c5=1)) == 0.0


def test_f1_unambig_perfect():
    assert f1_unambig(OutcomeCounts(c3=10)) == 1.0


def test_f1_ambig_fixture():
    counts = OutcomeCounts(c1=30, c2=20, c5=10)
    assert f1_ambig(counts) == pytest.approx(2 / 3, abs=1e-4)


def test_f1_ambig_zero_numerator():
    assert f1_ambig(OutcomeCounts(c2=5)) == 0.0


def test_f1_ambig_perfect():
    assert f1_ambig(OutcomeCounts(c1=7)) == 1.0


def test_both_f1_perfect_iff_no_errors():
    counts = OutcomeCounts(c1=3, c3=4)
    assert f1_unambig(counts) == 1.0 and f1_ambig(counts) == 1.0


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50),
       st.integers(0, 50), st.integers(0, 50))
def test_f1_values_in_unit_interval(c1, c2, c3, c4, c5):
    counts = OutcomeCounts(c1=c1, c2=c2, c3=c3, c4=c4, c5=c5)
    assert 0.0 <= f1_unambig(counts) <= 1.0
    assert 0.0 <= f1_ambig(counts) <= 1.0


def test_counts_reject_negative():
    with pytest.raises(DataIntegrityError):
        OutcomeCounts(c1=-1)


# -- regression rate ----------------------------------------------------------------


def test_mcr_seven_of_hundred():
    before = {f"s{i}": 3 for i in range(100)}
    after = {f"s{i}": 5 if i < 7 else 3 for i in range(100)}
    assert mcr(before, after).mcr == 0.07


def test_mcr_no_shifts():
    before = {"a": 3, "b": 4}
    after = {"a": 3, "b": 5}  # b was not category 3 before
    assert mcr(before, after).mcr == 0.0


def test_mcr_all_shift():
    before = {"a": 3, "b": 3}
    after = {"a": 5, "b": 5}
    assert mcr(before, after).mcr == 1.0


def test_mcr_self_comparison_is_zero():
    run = {"a": 3, "b": 1, "c": 4}
    assert mcr(run, run).mcr == 0.0


def test_mcr_undefined_without_before_correct():
    assert mcr({"a": 1}, {"a": 2}).mcr is None


def test_mcr_id_mismatch_rejected():
    with pytest.raises(DataIntegrityError):
        mcr({"a": 3}, {"b": 3})


# -- baseline runners -------------------------------------------------------------


def test_run_direct_on_toy_corpus(corpus_backend, toy_templates, greedy_params,
                                  fixtures_dir):
    samples = load_dataset(fixtures_dir / "direct_eval.jsonl")
    predictions = run_direct(samples, corpus_backend, toy_templates, greedy_params)
    assert [p.prediction for p in predictions] == [
        "ans1", "ans3", "ans4", "ans5", "ans7", "ans8",
    ]
    report = evaluate(samples, predictions)
    assert report.counts.c1 == 0
    assert report.f1_a == 0.0
    assert report.f1_u > 0.0


def test_run_ambig_aware_always_clarifies(corpus_backend, toy_templates,
                                          greedy_params, corpus_samples):
    predictions = run_ambig_aware(
        corpus_samples, corpus_backend, toy_templates, greedy_params
    )
    assert all(p.prediction == "clarify" for p in predictions)
    report = evaluate(corpus_samples, predictions)
    assert report.counts.c3 == 0 and report.f1_u == 0.0
    assert report.f1_a > 0.0


def test_ambiguity_aware_template_contains_escape_instruction():
    templates = load_templates()
    assert (
        'it is proper to answer with "The question is ambiguous"'
        in templates["ambiguity_aware"].body
    )


def test_identical_runs_identical_predictions(corpus_backend, toy_templates,
                                              greedy_params, corpus_samples):
    first = run_direct(corpus_samples, corpus_backend, toy_templates, greedy_params)
    second = run_direct(corpus_samples, corpus_backend, toy_templates, greedy_params)
    assert first == second


def _sample_rep_backend(templates, question, greedy, sampled_outputs):
    prompt = templates["direct"].render(question=question)
    return ScriptedBackend(
        exact={prompt: greedy},
        sampled={prompt: sampled_outputs},
        default=greedy,
    )


def test_sample_rep_three_of_ten(toy_templates):
    s = sample(True, sid="sr1")
    outputs = ["gold answer"] * 3 + ["other"] * 7
    backend = _sample_rep_backend(toy_templates, s.question, "gold answer", outputs)
    [record] = run_sample_rep(
        [s], backend, toy_templates, GenerationParams(max_tokens=8),
        threshold=0.5, master_seed=0,
    )
    assert record.extras["consistency"] == 0.3
    assert record.extras["ambiguous"] is True
    assert record.prediction in FIXED_CLARIFICATIONS


def test_sample_rep_match_is_case_insensitive(toy_templates):
    s = sample(True, sid="sr2")
    outputs = ["GOLD Answer"] * 10
    backend = _sample_rep_backend(toy_templates, s.question, "gold answer", outputs)
    [record] = run_sample_rep(
        [s], backend, toy_templates, GenerationParams(max_tokens=8),
        threshold=0.5, master_seed=0,
    )
    assert record.extras["consistency"] == 1.0
    assert record.prediction == "gold answer"


def test_sample_rep_deterministic_toy_consistency_one(corpus_backend, toy_templates,
                                                      corpus_samples):
    records = run_sample_rep(
        corpus_samples[:3], corpus_backend, toy_templates,
        GenerationParams(max_tokens=8), threshold=0.5, master_seed=0,
    )
    assert all(r.extras["consistency"] == 1.0 for r in records)
    assert all(r.extras["ambiguous"] is False for r in records)


def test_sample_rep_threshold_sweep_picks_best(toy_templates):
    # Ten samples with consistencies 0.1 .. 1.0; ambiguous ones have low
    # consistency, so an exhaustive sweep must find the separating threshold.
    samples, backends_outputs = [], {}
    for i in range(1, 11):
        ambiguous = i <= 5
        sid = f"t{i}"
        question = f"q{i}?"
        samples.append(QASample(id=sid, question=question,
                                answers=("gold",), gold_ambiguous=ambiguous))
        matches = i  # consistency i/10
        backends_outputs[question] = ["gold"] * matches + ["other"] * (10 - i)
    templates = toy_templates
    exact, sampled = {}, {}
    for question, outputs in backends_outputs.items():
        prompt = templates["direct"].render(question=question)
        exact[prompt] = "gold"
        sampled[prompt] = outputs

    def f1a_at(threshold: float) -> float:
        b = ScriptedBackend(exact=dict(exact), sampled={k: list(v) for k, v in sampled.items()},
                            default="gold")
        records = run_sample_rep(samples, b, templates,
                                 GenerationParams(max_tokens=8),
                                 threshold=threshold, master_seed=0)
        return evaluate(samples, records).f1_a

    scores = {t / 10: f1a_at(t / 10) for t in range(1, 11)}
    best = max(scores, key=scores.get)
    # consistencies 0.1..0.5 belong to ambiguous samples; threshold 0.6
    # separates them exactly (consistency < 0.6 -> ambiguous).
    assert best == 0.6
    assert scores[best] == 1.0


def test_self_ask_parses_verdicts(toy_templates):
    samples = [
        QASample(id="a1", question="qa?", answers=("ga",), gold_ambiguous=True),
        QASample(id="a2", question="qb?", answers=("gb",), gold_ambiguous=False),
        QASample(id="a3", question="qc?", answers=("gc",), gold_ambiguous=False),
    ]
    direct = toy_templates["direct"]
    self_ask = toy_templates["self_ask"]
    exact = {
        direct.render(question="qa?"): "answer a",
        direct.render(question="qb?"): "answer b",
        direct.render(question="qc?"): "answer c",
        self_ask.render(question="qa?", answer="answer a"): "Ambiguous",
        self_ask.render(question="qb?", answer="answer b"): "unambiguous.",
        self_ask.render(question="qc?", answer="answer c"): "I think maybe",
    }
    backend = ScriptedBackend(exact=exact)
    records = run_self_ask(samples, backend, toy_templates,
                           GenerationParams(max_tokens=8), master_seed=0)
    by_id = {r.sample_id: r for r in records}
    assert by_id["a1"].prediction in FIXED_CLARIFICATIONS
    assert by_id["a2"].prediction == "answer b"
    assert by_id["a3"].prediction == "answer c"
    assert "unparseable_verdict" in by_id["a3"].flags


def test_self_ask_on_toy_corpus(corpus_backend, toy_templates, corpus_samples,
                                greedy_params):
    records = run_self_ask(corpus_samples, corpus_backend, toy_templates,
                           greedy_params, master_seed=0)
    by_id = {r.sample_id: r for r in records}
    # Samples whose greedy answer is the "clarify" token are judged ambiguous.
    for sid in ("s2", "s6", "s9"):
        assert by_id[sid].prediction in FIXED_CLARIFICATIONS
    for sid in ("s1", "s3", "s4", "s5", "s7", "s8"):
        assert by_id[sid].prediction.startswith("ans")


def test_evaluate_rejects_missing_predictions(corpus_samples):
    with pytest.raises(DataIntegrityError):
        evaluate(corpus_samples, [PredictionRecord("s1", "x")])


def test_evaluate_counts_errored_separately():
    samples = [sample(False, ["gold"], sid="e1"), sample(True, sid="e2")]
    predictions = [
        PredictionRecord("e1", "gold"),
        PredictionRecord("e2", "", error="backend down"),
    ]
    report = evaluate(samples, predictions)
    assert report.counts.errored == 1
    assert report.counts.c3 == 1
    assert report.counts.c1 + report.counts.c2 == 0


def test_predictions_round_trip_keeps_flags(tmp_path):
    predictions = [
        PredictionRecord("a", "x", flags=("unparseable_verdict",), extras={"k": 1}),
        PredictionRecord("b", "", error="refused"),
        PredictionRecord("c", "y"),
    ]
    path = tmp_path / "predictions.jsonl"
    write_predictions(predictions, path)
    assert read_predictions(path) == predictions
    assert path.read_text().splitlines()[0] == (
        '{"id": "a", "prediction": "x", "flags": ["unparseable_verdict"], "k": 1}'
    )
