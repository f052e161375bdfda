from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambigkit.corpus import QASample
from ambigkit.entropy import TruncationMode, Verdict
from ambigkit.errors import BackendError, ConfigurationError, DataIntegrityError
from ambigkit.evalkit import evaluate, run_direct
from ambigkit.phrases import FIXED_CLARIFICATIONS
from ambigkit.pipeline import (
    EMPTY_DISAMBIGUATION_FLAG,
    FALLBACK_FIXED_FLAG,
    AssessedSample,
    ClarifyLabel,
    DisambiguationRecord,
    LabelKind,
    SelectionStrategy,
    StageOnePartition,
    label_records,
    read_labels,
    read_partition,
    read_records,
    select_and_balance,
    stage1_assess,
    stage2_disambiguate,
    stage3_fixed_label,
    stage3_generated_label,
    sweep_epsilon,
    write_labels,
    write_partition,
    write_records,
)
from ambigkit.toy import ToyBackend, load_ngram_table

from conftest import table_path
from helpers import RefuseQuestion, ScriptedBackend, table_average_entropy

MODE = TruncationMode.EXACT

EXPECTED_CATEGORIES = {
    "s1": 3, "s2": 1, "s3": 2, "s4": 2, "s5": 4, "s6": 5, "s7": 2, "s8": 4, "s9": 5,
}


@pytest.fixture(scope="module")
def assessed(corpus_samples, corpus_backend, toy_templates, greedy_params):
    return stage1_assess(
        corpus_samples, corpus_backend, toy_templates, greedy_params, mode=MODE
    )


@pytest.fixture(scope="module")
def records(assessed, corpus_backend, toy_templates, greedy_params):
    records, errored = stage2_disambiguate(
        [assessed.samples[a.sample_id] for a in assessed.incorrect], corpus_backend,
        toy_templates,
        greedy_params, mode=MODE,
    )
    assert errored == []
    return records


# -- stage 1 -------------------------------------------------------------------


def test_stage1_categories(assessed):
    categories = {a.sample_id: a.category for a in assessed.correct + assessed.incorrect}
    assert categories == EXPECTED_CATEGORIES


def test_stage1_partition_membership(assessed):
    assert {a.sample_id for a in assessed.correct} == {"s1", "s2"}
    assert {a.sample_id for a in assessed.incorrect} == {
        "s3", "s4", "s5", "s6", "s7", "s8", "s9",
    }
    assert assessed.errored == ()


def test_stage1_exact_match_is_correct(assessed):
    by_id = {a.sample_id: a for a in assessed.correct}
    assert by_id["s1"].prediction == "ans1"
    assert by_id["s1"].category == 3


def test_stage1_clarification_on_ambiguous_is_correct(assessed):
    by_id = {a.sample_id: a for a in assessed.correct}
    assert by_id["s2"].prediction == "clarify"
    assert by_id["s2"].category == 1


def test_stage1_clarification_on_unambiguous_is_category_five(assessed):
    by_id = {a.sample_id: a for a in assessed.incorrect}
    assert by_id["s6"].category == 5


def test_stage1_records_answer_entropy(assessed):
    for a in assessed.correct + assessed.incorrect:
        # All answer chains in the toy world are one-hot.
        assert a.answer_entropy == 0.0


def test_stage1_errored_samples_excluded(corpus_samples, corpus_backend,
                                         toy_templates, greedy_params):
    backend = RefuseQuestion(corpus_backend, "q5a")
    partition = stage1_assess(
        corpus_samples, backend, toy_templates, greedy_params, mode=MODE
    )
    assert [e.sample_id for e in partition.errored] == ["s5"]
    ids = {a.sample_id for a in partition.correct + partition.incorrect}
    assert "s5" not in ids
    assert len(ids) == 8  # every sample lands in exactly one bucket


def test_stage1_is_the_direct_baselines_outcome_table(corpus_samples, corpus_backend,
                                                      toy_templates, greedy_params):
    backend = RefuseQuestion(corpus_backend, "q5a")
    partition = stage1_assess(corpus_samples, backend, toy_templates, greedy_params, mode=MODE)
    rows = evaluate(corpus_samples,
                    run_direct(corpus_samples, backend, toy_templates, greedy_params))
    assessed = partition.correct + partition.incorrect
    assert ({a.sample_id: (a.category, a.prediction) for a in assessed}
            == {row.sample_id: (row.category, row.prediction)
                for row in rows if row.error is None})
    [errored_row] = [row for row in rows if row.error is not None]
    assert [e.sample_id for e in partition.errored] == [errored_row.sample_id] == ["s5"]
    assert partition.errored[0].error == errored_row.error


def test_stage1_total_outage_raises(corpus_samples, corpus_backend, toy_templates,
                                    greedy_params):
    # Every prompt contains the empty question, so every sample fails.
    backend = RefuseQuestion(corpus_backend, "")
    with pytest.raises(BackendError, match=r"every backend call failed \(9 samples\); "
                                           r"first error: refused ''"):
        stage1_assess(corpus_samples, backend, toy_templates, greedy_params, mode=MODE)


# -- stage 2 -------------------------------------------------------------------


EXPECTED_GAINS = {
    "s3": math.log(4) / 2,
    "s4": 0.8018185525433373 / 2,
    "s5": math.log(2) / 2,
    "s6": 0.0,
    "s7": -math.log(2) / 2,
    "s8": (0.5623351446188083 - math.log(2)) / 2,
    "s9": 0.0,
}


def test_stage2_gains_match_table_oracle(records, corpus_table):
    for record in records:
        oracle = table_average_entropy(
            corpus_table, record.query_text
        ) - table_average_entropy(corpus_table, record.disambig_text)
        assert record.info_gain == pytest.approx(oracle, abs=1e-12)
        assert record.info_gain == pytest.approx(
            EXPECTED_GAINS[record.sample_id], abs=1e-12
        )


def test_stage2_verdicts_at_default_epsilon(records):
    verdicts = {r.sample_id: r.verdict_at(0.1) for r in records}
    ambiguous = {sid for sid, v in verdicts.items() if v is Verdict.PERCEIVED_AMBIGUOUS}
    assert ambiguous == {"s3", "s4", "s5"}


def test_stage2_disambiguation_texts(records):
    by_id = {r.sample_id: r for r in records}
    assert by_id["s3"].disambig_text == "d3a d3b"
    assert by_id["s3"].h_disambig < by_id["s3"].h_query


def test_stage2_empty_disambiguation_flagged(tmp_path, corpus_samples, corpus_backend,
                                             toy_templates, greedy_params):
    # The G: cue for s5 generates the end marker immediately, producing an
    # empty rewrite.
    templates = dict(toy_templates)
    templates["disambiguation"] = toy_templates["ambiguate"]
    s5 = [s for s in corpus_samples if s.id == "s5"]
    records, errored = stage2_disambiguate(
        s5, corpus_backend, templates, greedy_params, mode=MODE
    )
    assert errored == []
    [record] = records
    assert record.disambig_text == ""
    assert record.verdict_at(0.1) is Verdict.PERCEIVED_UNAMBIGUOUS
    assert record.info_gain == 0.0
    # The record holds no flag; the written line derives it from the rewrite.
    path = tmp_path / "records.jsonl"
    write_records(records, path, 0.1)
    assert json.loads(path.read_text())["flags"] == [EMPTY_DISAMBIGUATION_FLAG]


def test_empty_rewrite_is_unambiguous_at_a_negative_epsilon(
        tmp_path, corpus_samples, corpus_backend, toy_templates, greedy_params):
    # Its zero gain exceeds -1, so only the empty_disambiguation flag decides.
    templates = {**toy_templates, "disambiguation": toy_templates["ambiguate"]}
    s5 = [s for s in corpus_samples if s.id == "s5"]
    records, _ = stage2_disambiguate(s5, corpus_backend, templates, greedy_params, mode=MODE)
    [record] = records
    assert record.verdict_at(-1.0) is Verdict.PERCEIVED_UNAMBIGUOUS
    path = tmp_path / "records.jsonl"
    write_records(records, path, -1.0)
    assert json.loads(path.read_text())["verdict"] == "perceived_unambiguous"
    assert sweep_epsilon(records, [-1.0]) == [(-1.0, 0)]


def test_stage2_identical_rewrite_zero_gain(toy_templates, greedy_params):
    backend = ToyBackend(load_ngram_table(table_path("echo_disambig")))
    sample = QASample(id="e1", question="xa xb", answers=("g",), gold_ambiguous=True)
    records, _ = stage2_disambiguate(
        [sample], backend, toy_templates, greedy_params, mode=MODE
    )
    [record] = records
    assert record.disambig_text == record.query_text
    assert record.info_gain == 0.0
    assert record.verdict_at(0.1) is Verdict.PERCEIVED_UNAMBIGUOUS


def test_stage2_backend_failure_reported(corpus_samples, corpus_backend,
                                         toy_templates, greedy_params):
    backend = RefuseQuestion(corpus_backend, "q3a")
    incorrect = [s for s in corpus_samples if s.id in ("s3", "s4")]
    records, errored = stage2_disambiguate(
        incorrect, backend, toy_templates, greedy_params, mode=MODE
    )
    assert [r.sample_id for r in records] == ["s4"]
    assert [e.sample_id for e in errored] == ["s3"]


def test_stage2_total_outage_raises(corpus_samples, corpus_backend, toy_templates,
                                    greedy_params):
    backend = RefuseQuestion(corpus_backend, "")
    incorrect = [s for s in corpus_samples if s.id in ("s3", "s4")]
    with pytest.raises(BackendError, match=r"every backend call failed \(2 samples\)"):
        stage2_disambiguate(incorrect, backend, toy_templates, greedy_params,
                            mode=MODE)


# -- stage 3 -------------------------------------------------------------------


def test_fixed_labels_canonical_and_deterministic():
    first = [stage3_fixed_label(f"id{i}", master_seed=4) for i in range(20)]
    second = [stage3_fixed_label(f"id{i}", master_seed=4) for i in range(20)]
    assert first == second
    for label in first:
        assert label.text in FIXED_CLARIFICATIONS
        assert label.text[-1] in ".?"
        assert label.kind is LabelKind.FIXED


def test_fixed_labels_insensitive_to_order():
    a = stage3_fixed_label("alpha", master_seed=4)
    _ = stage3_fixed_label("beta", master_seed=4)
    b = stage3_fixed_label("alpha", master_seed=4)
    assert a == b


def test_generated_label_from_toy_backend(records, corpus_backend, toy_templates,
                                          greedy_params):
    record = next(r for r in records if r.sample_id == "s3")
    label = stage3_generated_label(
        record, corpus_backend, toy_templates, greedy_params, master_seed=0
    )
    assert label.kind is LabelKind.GENERATED
    assert label.text == "clarify"


def test_generated_label_falls_back_when_not_clarifying(records, corpus_backend,
                                                        toy_templates, greedy_params):
    # s4's clarification chain emits a non-clarifying token.
    record = next(r for r in records if r.sample_id == "s4")
    label = stage3_generated_label(
        record, corpus_backend, toy_templates, greedy_params, master_seed=0
    )
    assert label.kind is LabelKind.FIXED
    assert FALLBACK_FIXED_FLAG in label.flags
    assert label.text in FIXED_CLARIFICATIONS
    assert label.text == stage3_fixed_label("s4", master_seed=0).text


def test_generated_label_requires_rewrite(toy_templates, greedy_params):
    record = DisambiguationRecord(
        sample_id="x", query_text="q", disambig_text="", h_query=1.0,
        h_disambig=1.0, info_gain=0.0,
    )
    backend = ScriptedBackend()
    label = stage3_generated_label(record, backend, toy_templates,
                                   greedy_params, master_seed=0)
    assert label == ClarifyLabel(
        sample_id="x", text=stage3_fixed_label("x", master_seed=0).text,
        kind=LabelKind.FIXED, flags=(FALLBACK_FIXED_FLAG, EMPTY_DISAMBIGUATION_FLAG),
    )
    assert backend.calls == []


def test_label_records_handles_empty_rewrites(toy_templates, greedy_params):
    record = DisambiguationRecord(
        sample_id="x", query_text="q", disambig_text="", h_query=1.0,
        h_disambig=1.0, info_gain=0.0,
    )
    [label] = label_records([record], LabelKind.GENERATED, ScriptedBackend(),
                            toy_templates, greedy_params, master_seed=0)
    assert label.kind is LabelKind.FIXED
    assert FALLBACK_FIXED_FLAG in label.flags


# -- selection and balancing -----------------------------------------------------


def make_sample(sid: str, ambiguous: bool) -> QASample:
    return QASample(id=sid, question=f"question {sid}", answers=(f"gold {sid}",),
                    gold_ambiguous=ambiguous)


def make_assessed(sid: str, category: int,
                  entropy: float | None = 0.0) -> AssessedSample:
    return AssessedSample(sample_id=sid, category=category, prediction="p",
                          answer_entropy=entropy)


def make_partition(samples, correct, incorrect) -> StageOnePartition:
    return StageOnePartition({s.id: s for s in samples}, correct=tuple(correct),
                             incorrect=tuple(incorrect))


def make_record(sid: str, gain: float) -> DisambiguationRecord:
    return DisambiguationRecord(
        sample_id=sid, query_text=f"question {sid}", disambig_text=f"rewrite {sid}",
        h_query=gain, h_disambig=0.0, info_gain=gain,
    )


def build_world(n_correct: int, gains: dict[str, float],
                gold_ambiguous: set[str] | None = None,
                entropies: dict[str, float | None] | None = None):
    gold_ambiguous = gold_ambiguous if gold_ambiguous is not None else set(gains)
    samples = [*(make_sample(f"c{i:04d}", False) for i in range(n_correct)),
               *(make_sample(sid, sid in gold_ambiguous) for sid in gains)]
    partition = make_partition(
        samples,
        [make_assessed(f"c{i:04d}", 3) for i in range(n_correct)],
        [make_assessed(sid, 2, entropy=(entropies or {}).get(sid, 0.0)) for sid in gains],
    )
    records = [make_record(sid, gain) for sid, gain in gains.items()]
    return partition, records


def test_balance_subsamples_correct_when_larger():
    gains = {f"r{i:03d}": 0.5 + i / 1000 for i in range(300)}
    partition, records = build_world(500, gains)
    selection = select_and_balance(
        partition, records, SelectionStrategy.APA_INFOGAIN, 0.1, master_seed=9
    )
    assert len(selection.correct) == 300
    assert len(selection.ambiguous) == 300
    assert {r.sample_id for r in selection.ambiguous} == set(gains)
    chosen = {s.id for s in selection.correct}
    assert chosen < {a.sample_id for a in partition.correct}


def test_balance_truncates_ambiguous_by_gain_when_smaller():
    gains = {f"r{i:03d}": (i * 37 % 350) / 100 + 0.2 for i in range(350)}
    partition, records = build_world(200, gains)
    selection = select_and_balance(
        partition, records, SelectionStrategy.APA_INFOGAIN, 0.1, master_seed=9
    )
    assert len(selection.correct) == 200
    assert len(selection.ambiguous) == 200
    # Sort oracle: the kept set must be the 200 largest gains (stable ties).
    oracle = sorted(records, key=lambda r: -r.info_gain)[:200]
    assert [r.sample_id for r in selection.ambiguous] == [r.sample_id for r in oracle]


def test_balance_equal_sizes_keeps_everything():
    gains = {f"r{i}": 0.5 for i in range(4)}
    partition, records = build_world(4, gains)
    selection = select_and_balance(
        partition, records, SelectionStrategy.APA_INFOGAIN, 0.1, master_seed=9
    )
    assert len(selection.correct) == len(selection.ambiguous) == 4


def test_truncation_ties_break_by_sample_id():
    gains = {"a": 0.5, "b": 0.5, "c": 0.5}
    partition, records = build_world(2, gains)
    selection = select_and_balance(
        partition, records, SelectionStrategy.APA_INFOGAIN, 0.1, master_seed=9
    )
    assert [r.sample_id for r in selection.ambiguous] == ["a", "b"]


@pytest.mark.parametrize("strategy", [SelectionStrategy.APA_INFOGAIN,
                                      SelectionStrategy.ANSWER_ENTROPY], ids=lambda s: s.value)
def test_tied_selection_does_not_depend_on_record_order(strategy):
    gains = {"a": 0.5, "b": 0.5, "c": 0.5}
    partition, records = build_world(2, gains, entropies=dict.fromkeys(gains, 1.0))
    chosen = [[r.sample_id for r in select_and_balance(
        partition, order, strategy, 0.1, master_seed=9).ambiguous]
        for order in (records, records[::-1])]
    assert chosen == [["a", "b"], ["a", "b"]]


def test_apa_selection_ignores_gold_labels():
    gains = {f"r{i}": 0.05 * i for i in range(10)}
    partition_all, records = build_world(3, gains, gold_ambiguous=set(gains))
    partition_none, _ = build_world(3, gains, gold_ambiguous=set())
    chosen_all = select_and_balance(
        partition_all, records, SelectionStrategy.APA_INFOGAIN, 0.1, master_seed=1
    )
    chosen_none = select_and_balance(
        partition_none, records, SelectionStrategy.APA_INFOGAIN, 0.1, master_seed=1
    )
    assert [r.sample_id for r in chosen_all.ambiguous] == [
        r.sample_id for r in chosen_none.ambiguous
    ]


def test_empty_pool_is_actionable_error():
    gains = {"a": 0.01, "b": 0.02}
    partition, records = build_world(2, gains)
    with pytest.raises(ConfigurationError, match="epsilon"):
        select_and_balance(partition, records, SelectionStrategy.APA_INFOGAIN,
                           0.9, master_seed=1)


def test_empty_correct_split_is_actionable_error():
    partition, records = build_world(0, {"a": 0.5, "b": 0.6})
    with pytest.raises(ConfigurationError, match="correct split is empty"):
        select_and_balance(partition, records, SelectionStrategy.APA_INFOGAIN,
                           0.1, master_seed=1)


def test_correct_split_without_an_answer_is_actionable_error():
    partition, records = build_world(0, {"a": 0.5, "b": 0.6})
    # A gold-ambiguous sample may have no answer; clarifying it is category 1.
    unanswered = QASample(id="u", question="q", answers=(), gold_ambiguous=True)
    partition = make_partition([*partition.samples.values(), unanswered],
                               [make_assessed("u", 1)], partition.incorrect)
    with pytest.raises(ConfigurationError,
                       match="no sample in the correct split has a gold answer"):
        select_and_balance(partition, records, SelectionStrategy.APA_INFOGAIN,
                           0.1, master_seed=1)


@pytest.mark.parametrize("strategy", [SelectionStrategy.APA_INFOGAIN,
                                      SelectionStrategy.GT_MAX_INFOGAIN])
@pytest.mark.parametrize("stray", ["foreign", "c0000"], ids=["unknown", "correct"])
def test_record_outside_the_incorrect_split_is_an_integrity_error(strategy, stray):
    partition, records = build_world(3, {"a": 0.5, "b": 0.6})
    with pytest.raises(DataIntegrityError, match=f"'{stray}'.*run `ambigkit detect` again"):
        select_and_balance(partition, [*records, make_record(stray, 0.9)], strategy,
                           0.1, master_seed=1)


def test_gt_min_matches_sort_oracle():
    gains = {f"g{i}": gain for i, gain in enumerate(
        [0.91, 0.13, 0.55, 0.72, 0.31, 0.44, 0.68, 0.22, 0.80, 0.05]
    )}
    partition, records = build_world(3, gains)
    selection = select_and_balance(
        partition, records, SelectionStrategy.GT_MIN_INFOGAIN, 0.1, master_seed=1
    )
    # Budget = |perceived ambiguous| = 9 (all but 0.05); capped at n=3.
    oracle = sorted(records, key=lambda r: r.info_gain)[:3]
    assert [r.sample_id for r in selection.ambiguous] == [r.sample_id for r in oracle]


def test_gt_max_takes_largest():
    gains = {"a": 0.2, "b": 0.9, "c": 0.5, "d": 0.11}
    partition, records = build_world(2, gains)
    selection = select_and_balance(
        partition, records, SelectionStrategy.GT_MAX_INFOGAIN, 0.1, master_seed=1
    )
    assert [r.sample_id for r in selection.ambiguous] == ["b", "c"]


def test_gt_strategies_require_gold_labels():
    gains = {"a": 0.5, "b": 0.6}
    partition = make_partition(
        [*(make_sample(f"c{i}", False) for i in range(2)),
         *(QASample(id=sid, question="q", answers=("g",), gold_ambiguous=None)
           for sid in gains)],
        [make_assessed(f"c{i}", 3) for i in range(2)],
        [make_assessed(sid, 2) for sid in gains],
    )
    records = [make_record(sid, gain) for sid, gain in gains.items()]
    with pytest.raises(ConfigurationError, match="gold"):
        select_and_balance(partition, records, SelectionStrategy.GT_RANDOM,
                           0.1, master_seed=1)


def test_gt_random_is_seeded_subset_of_gold_pool():
    gains = {f"r{i}": 0.2 + i / 100 for i in range(8)}
    gold = {f"r{i}" for i in range(0, 8, 2)}  # only even ids are gold ambiguous
    partition, records = build_world(2, gains, gold_ambiguous=gold)
    first = select_and_balance(partition, records, SelectionStrategy.GT_RANDOM,
                               0.1, master_seed=5)
    second = select_and_balance(partition, records, SelectionStrategy.GT_RANDOM,
                                0.1, master_seed=5)
    assert [r.sample_id for r in first.ambiguous] == [
        r.sample_id for r in second.ambiguous
    ]
    assert {r.sample_id for r in first.ambiguous} <= gold


def test_gt_random_draws_per_sample_id():
    # Six perceived-ambiguous and six other gold-ambiguous records: a gold
    # pool of 12 over a budget of 6, with correct samples to spare.
    gains = {**{f"p{i}": 0.5 for i in range(6)}, **{f"u{i}": 0.05 for i in range(6)}}

    def picks(gains: dict[str, float], seed: int) -> list[str]:
        partition, records = build_world(20, gains)
        selection = select_and_balance(partition, records, SelectionStrategy.GT_RANDOM,
                                       0.1, master_seed=seed)
        return [r.sample_id for r in selection.ambiguous]

    for seed in range(5):
        chosen = picks(gains, seed)
        assert len(chosen) == 6
        assert picks(dict(reversed(gains.items())), seed) == chosen
        grown = picks({**gains, "extra": 0.05}, seed)
        assert len(set(chosen) - set(grown)) <= 1


def test_answer_entropy_strategy_ranks_by_score():
    gains = {"a": 0.5, "b": 0.6, "c": 0.7, "d": 0.8}
    entropies = {"a": 0.1, "b": 2.0, "c": 1.5, "d": 0.3}
    partition, records = build_world(2, gains, entropies=entropies)
    selection = select_and_balance(
        partition, records, SelectionStrategy.ANSWER_ENTROPY, 0.1, master_seed=1
    )
    assert [r.sample_id for r in selection.ambiguous] == ["b", "c"]


def test_answer_entropy_strategy_requires_scores():
    gains = {"a": 0.5, "b": 0.6}
    partition, records = build_world(2, gains, entropies={"a": None, "b": None})
    with pytest.raises(ConfigurationError, match="answer"):
        select_and_balance(partition, records, SelectionStrategy.ANSWER_ENTROPY,
                           0.1, master_seed=1)


def test_selected_halves_always_equal_sized():
    for n_correct, n_records in [(1, 5), (5, 1), (4, 4), (10, 3)]:
        gains = {f"r{i}": 0.5 + i / 100 for i in range(n_records)}
        partition, records = build_world(n_correct, gains)
        selection = select_and_balance(
            partition, records, SelectionStrategy.APA_INFOGAIN, 0.1, master_seed=2
        )
        assert len(selection.correct) == len(selection.ambiguous)


# -- epsilon sweep ------------------------------------------------------------------


def test_sweep_counts_by_hand():
    records = [make_record(f"r{i}", g) for i, g in enumerate([0.05, 0.2, 0.6, 1.0])]
    sizes = sweep_epsilon(records, [0.1, 0.5, 0.9])
    assert sizes == [(0.1, 3), (0.5, 2), (0.9, 1)]


def test_sweep_all_below_threshold():
    records = [make_record("a", 0.01), make_record("b", 0.05)]
    assert sweep_epsilon(records, [0.1, 0.5]) == [(0.1, 0), (0.5, 0)]


def test_sweep_duplicate_epsilons():
    records = [make_record("a", 0.4)]
    assert sweep_epsilon(records, [0.3, 0.3]) == [(0.3, 1), (0.3, 1)]


def test_sweep_requires_epsilons():
    with pytest.raises(ValueError):
        sweep_epsilon([], [])


@given(st.lists(st.floats(min_value=-1, max_value=2), max_size=30),
       st.lists(st.floats(min_value=-1, max_value=2), min_size=1, max_size=8))
def test_sweep_pool_sizes_non_increasing(gains, epsilons):
    records = [make_record(f"r{i}", g) for i, g in enumerate(gains)]
    results = dict(sweep_epsilon(records, sorted(epsilons)))
    ordered = [results[e] for e in sorted(results)]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))


# -- checkpoints --------------------------------------------------------------------


def test_partition_round_trip(tmp_path, assessed, corpus_samples):
    path = tmp_path / "assess.jsonl"
    write_partition(assessed, path)
    loaded = read_partition(path, {s.id: s for s in corpus_samples})
    assert loaded == assessed


def test_partition_round_trip_with_errored(tmp_path, corpus_samples, corpus_backend,
                                           toy_templates, greedy_params):
    backend = RefuseQuestion(corpus_backend, "q7a")
    partition = stage1_assess(corpus_samples, backend, toy_templates,
                              greedy_params, mode=MODE)
    assert partition.errored
    path = tmp_path / "assess.jsonl"
    write_partition(partition, path)
    loaded = read_partition(path, {s.id: s for s in corpus_samples})
    assert loaded == partition
    assert loaded.errored[0].sample_id == "s7"


def test_records_round_trip(tmp_path, records):
    path = tmp_path / "records.jsonl"
    write_records(records, path, 0.1)
    assert read_records(path) == records


@pytest.mark.parametrize("disambig,flags,ambiguous_at", [
    ("", [], []),
    ("d", [EMPTY_DISAMBIGUATION_FLAG], [-1.0, 0.0, 0.1, 1.0]),
], ids=["no-rewrite-unflagged", "rewrite-flagged-empty"])
def test_read_record_is_judged_by_its_rewrite_and_gain_not_its_flags(
        tmp_path, disambig, flags, ambiguous_at):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps({
        "id": "x", "query": "q", "disambig": disambig, "h_query": 2.0, "h_disambig": 0.5,
        "info_gain": 1.5, "verdict": "perceived_ambiguous", "flags": flags}) + "\n")
    [record] = read_records(path)
    epsilons = [-1.0, 0.0, 0.1, 1.0, 1.5, 2.0]
    assert [eps for eps in epsilons
            if record.verdict_at(eps) is Verdict.PERCEIVED_AMBIGUOUS] == ambiguous_at


def test_labels_round_trip(tmp_path):
    labels = [stage3_fixed_label(f"s{i}", master_seed=3) for i in range(6)]
    path = tmp_path / "labels.jsonl"
    write_labels(labels, path)
    assert read_labels(path) == labels


def test_stage_chain_byte_reproducible(tmp_path, corpus_samples, corpus_backend,
                                       toy_templates, greedy_params):
    def run(out_dir):
        out_dir.mkdir()
        partition = stage1_assess(corpus_samples, corpus_backend, toy_templates,
                                  greedy_params, mode=MODE)
        records, _ = stage2_disambiguate(
            [partition.samples[a.sample_id] for a in partition.incorrect], corpus_backend,
            toy_templates,
            greedy_params, mode=MODE,
        )
        selection = select_and_balance(
            partition, records, SelectionStrategy.APA_INFOGAIN, 0.1, master_seed=11
        )
        labels = label_records(selection.ambiguous, LabelKind.FIXED, corpus_backend,
                               toy_templates, greedy_params, master_seed=11)
        write_partition(partition, out_dir / "assess.jsonl")
        write_records(records, out_dir / "records.jsonl", 0.1)
        write_labels(labels, out_dir / "labels.jsonl")
        return [
            (out_dir / name).read_bytes()
            for name in ("assess.jsonl", "records.jsonl", "labels.jsonl")
        ]

    assert run(tmp_path / "one") == run(tmp_path / "two")
