"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they pass.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

import pytest

from ambigkit.backend import GenerationParams
from ambigkit.config import SampleRepConfig
from ambigkit.entropy import (
    EntropyProfile,
    TruncationMode,
    Verdict,
    classify,
    entropy_profile,
    info_gain,
)
from ambigkit.evalkit import (
    OutcomeCounts,
    evaluate,
    f1_ambig,
    f1_unambig,
    mcr,
    rouge_l,
    run_direct,
    run_sample_rep,
)
from ambigkit.corpus import QASample, load_dataset
from ambigkit.pipeline import (
    SelectionStrategy,
    select_and_balance,
    sweep_epsilon,
)
from ambigkit.sft import verify as sft_verify
from ambigkit.toy import ToyBackend, load_ngram_table

from conftest import FIXTURES, table_path
from helpers import (
    ScriptedBackend,
    rouge_oracle,
    run_chain,
    table_entropies,
    workdir_of,
    write_toy_config,
)
from test_pipeline import build_world, make_record

EPSILON_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def ok(n: int, message: str) -> None:
    print(f"[acceptance {n}] PASS - {message}")


# -- 1: entropy oracle ---------------------------------------------------------


def test_criterion_1_entropy_oracle():
    started = time.monotonic()
    cases = [
        ("uniform4", ["a b a", "b", "a a a a"]),
        ("bigram_ab", ["a b a b", "b a", "a"]),
        ("skewed", ["p q r", "p p", "q"]),
        ("trigram", ["m n o", "n m o"]),
        ("onehot_chain", ["go left then right"]),
        ("corpus_world", ["q3a q3b", "q4a q4b", "d9a d9b", "q8a q8b"]),
    ]
    positions = 0
    for name, texts in cases:
        table = load_ngram_table(table_path(name))
        backend = ToyBackend(table)  # full top-k
        for text in texts:
            profile = entropy_profile(backend.score(text, "").tokens, TruncationMode.EXACT)
            oracle = table_entropies(table, text)
            assert len(profile.per_token_entropy) == len(oracle)
            for got, want in zip(profile.per_token_entropy, oracle):
                assert abs(got - want) <= 1e-12
                positions += 1
    uniform = ToyBackend(load_ngram_table(table_path("uniform4")))
    profile = entropy_profile(uniform.score("a", "").tokens, TruncationMode.EXACT)
    assert abs(profile.average_entropy - math.log(4)) <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    ok(1, f"entropy matches direct summation on 6 fixtures "
          f"({positions} positions, ln4 check; {elapsed:.3f}s)")


# -- 2: information-gain identities -----------------------------------------------


def test_criterion_2_info_gain_identities():
    backend = ToyBackend(load_ngram_table(table_path("bigram_ab")))
    a = entropy_profile(backend.score("a b a", "").tokens, TruncationMode.EXACT)
    b = entropy_profile(backend.score("a b a", "").tokens, TruncationMode.EXACT)
    assert info_gain(a, b) == 0.0

    rng = random.Random(20240817)
    for _ in range(1000):
        left = _random_profile(rng)
        right = _random_profile(rng)
        assert abs(info_gain(left, right) + info_gain(right, left)) <= 1e-12
    ok(2, "self-gain is exactly zero; antisymmetry holds on 1000 random pairs")


def _random_profile(rng: random.Random) -> EntropyProfile:
    values = tuple(rng.uniform(0, 5) for _ in range(rng.randint(1, 12)))
    return EntropyProfile(
        per_token_entropy=values,
        average_entropy=math.fsum(values) / len(values),
        token_count=len(values),
    )


# -- 3: threshold semantics ---------------------------------------------------------


def test_criterion_3_threshold_semantics():
    assert classify(0.1, 0.1) is Verdict.PERCEIVED_UNAMBIGUOUS

    rng = random.Random(7)
    fixtures = [[rng.uniform(-0.5, 1.5) for _ in range(rng.randint(0, 40))]
                for _ in range(100)]
    for gains in fixtures:
        records = [make_record(f"r{i}", g) for i, g in enumerate(gains)]
        sizes = [size for _, size in sweep_epsilon(records, EPSILON_GRID)]
        assert all(x >= y for x, y in zip(sizes, sizes[1:]))
    ok(3, "strict threshold at the boundary; pool sizes non-increasing over "
          "the 0.1-0.9 grid on 100 random fixtures")


# -- 4: answer-overlap oracle ---------------------------------------------------------


def test_criterion_4_rouge_oracle():
    rng = random.Random(99)
    alphabet = list("abcdef")
    for _ in range(100):
        pred = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        refs = [tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
                for _ in range(rng.randint(1, 3))]
        got = rouge_l(" ".join(pred), [" ".join(r) for r in refs])
        assert got == pytest.approx(rouge_oracle(pred, refs), abs=1e-12)

    worked = rouge_l("the revolution began in 1917", ["1917"])
    assert abs(worked - 0.3333) <= 1e-4
    assert worked > 0.3  # classified correct at the threshold
    ok(4, f"LCS F-measure matches the independent oracle on 100 pairs; "
          f"worked example scores {worked:.4f} > 0.3")


# -- 5: metric fixtures -----------------------------------------------------------------


def test_criterion_5_metric_fixtures():
    assert abs(f1_unambig(OutcomeCounts(c2=5, c3=40, c4=5, c5=5)) - 0.8) <= 1e-9
    assert abs(f1_ambig(OutcomeCounts(c1=30, c2=20, c5=10)) - 0.6667) <= 1e-4

    samples = load_dataset(FIXTURES / "direct_eval.jsonl")
    backend = ToyBackend(load_ngram_table(table_path("corpus_world")))
    from ambigkit.corpus import load_templates

    templates = load_templates(FIXTURES / "toy_templates")
    predictions = run_direct(samples, backend, templates,
                             GenerationParams(max_tokens=8))
    counts = OutcomeCounts.of(evaluate(samples, predictions))
    assert counts.c1 == 0
    assert f1_ambig(counts) == 0.0

    before = {f"s{i}": 3 for i in range(100)}
    after = {f"s{i}": 5 if i < 7 else 3 for i in range(100)}
    assert mcr(before, after).mcr == 0.07
    ok(5, "F1 fixtures 0.8000/0.6667; clarification-free run scores F1a 0.00; "
          "7/100 regression rate is exactly 0.0700")


# -- 6: sampling-consistency semantics -----------------------------------------------


def test_criterion_6_sample_rep_consistency():
    from ambigkit.corpus import load_templates

    templates = load_templates(FIXTURES / "toy_templates")
    sample = QASample(id="sr", question="who?", answers=("g",), gold_ambiguous=True)
    prompt = templates["direct"].render(question=sample.question)
    backend = ScriptedBackend(
        exact={prompt: "greedy answer"},
        sampled={prompt: ["greedy answer"] * 3 + ["something else"] * 7},
    )
    [record] = run_sample_rep([sample], backend, templates,
                              GenerationParams(max_tokens=8),
                              SampleRepConfig(threshold=0.5), master_seed=0)
    assert record.extras["consistency"] == 0.3
    ok(6, "3 of 10 sampled matches yield consistency exactly 0.3")


# -- 7: balancing rules --------------------------------------------------------------


def test_criterion_7_balancing_rules(tmp_path):
    partition, records = build_world(
        500, {f"r{i:03d}": 0.2 + i / 1000 for i in range(300)}
    )
    selection = select_and_balance(partition, records,
                                   SelectionStrategy.APA_INFOGAIN, 0.1,
                                   master_seed=3)
    assert (len(selection.correct_ids), len(selection.ambiguous_ids)) == (300, 300)

    gains = {f"r{i:03d}": (i * 53 % 347) / 200 + 0.11 for i in range(350)}
    partition, records = build_world(200, gains)
    selection = select_and_balance(partition, records,
                                   SelectionStrategy.APA_INFOGAIN, 0.1,
                                   master_seed=3)
    assert (len(selection.correct_ids), len(selection.ambiguous_ids)) == (200, 200)
    oracle = sorted(records, key=lambda r: -r.info_gain)[:200]
    assert list(selection.ambiguous_ids) == [r.sample_id for r in oracle]

    sft_path = run_chain(write_toy_config(tmp_path / "config.json"))
    report = sft_verify(sft_path, answer_cue="\nA:")
    assert report.ok
    assert report.per_source["ambig"] == report.per_source["correct"]
    assert report.per_source["ambig"] * 2 == report.total
    ok(7, "500/300 and 200/350 balance as specified (sort-oracle checked); "
          "emitted training file verifies clean with half ambiguous")


# -- 8: end-to-end determinism ---------------------------------------------------------


def _phrase_assignment(workdir: Path) -> dict[str, str]:
    return {
        row["id"]: row["text"]
        for row in map(json.loads, (workdir / "labels.jsonl").read_text().splitlines())
    }


def _selected_ids(workdir: Path) -> tuple[list[str], list[str]]:
    selection = json.loads((workdir / "selection.json").read_text())
    return selection["correct_ids"], selection["ambiguous_ids"]


def test_criterion_8_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    config_a = write_toy_config(tmp_path / "a.json")
    config_b = write_toy_config(tmp_path / "b.json")
    run_chain(config_a)
    run_chain(config_b)
    bytes_a = (workdir_of(config_a) / "sft.jsonl").read_bytes()
    bytes_b = (workdir_of(config_b) / "sft.jsonl").read_bytes()
    assert bytes_a == bytes_b

    config_c = write_toy_config(tmp_path / "c.json", seed=1)
    run_chain(config_c)
    assert _selected_ids(workdir_of(config_a)) == _selected_ids(workdir_of(config_c))
    phrases_a = _phrase_assignment(workdir_of(config_a))
    phrases_c = _phrase_assignment(workdir_of(config_c))
    assert set(phrases_a) == set(phrases_c)
    assert phrases_a != phrases_c
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    ok(8, f"same seed gives byte-identical training files; changing the seed "
          f"changes phrases but not the selected ids ({elapsed:.2f}s for "
          f"three full runs)")


# -- 9: gold-label invariance -----------------------------------------------------------


def test_criterion_9_gold_label_invariance(tmp_path):
    config = write_toy_config(tmp_path / "orig.json")
    run_chain(config)
    _, ambiguous_original = _selected_ids(workdir_of(config))

    flipped_rows = []
    for line in (FIXTURES / "corpus.jsonl").read_text().splitlines():
        row = json.loads(line)
        row["ambiguous"] = not row["ambiguous"]
        flipped_rows.append(json.dumps(row))
    flipped_dataset = tmp_path / "flipped.jsonl"
    flipped_dataset.write_text("".join(r + "\n" for r in flipped_rows))

    config_flipped = write_toy_config(tmp_path / "flip.json", dataset=str(flipped_dataset))
    run_chain(config_flipped)
    _, ambiguous_flipped = _selected_ids(workdir_of(config_flipped))
    assert ambiguous_original == ambiguous_flipped == ["s3", "s4"]
    ok(9, "flipping every gold ambiguity label leaves the selected ambiguous "
          "id set unchanged (s3, s4)")
