from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambigkit.backend import TokenDistribution
from ambigkit.entropy import (
    EntropyProfile,
    TruncationMode,
    Verdict,
    classify,
    entropy_profile,
    info_gain,
    token_entropy,
)
from ambigkit.errors import DataIntegrityError, NormalizationError
from ambigkit.toy import ToyBackend, load_ngram_table

from conftest import table_path
from helpers import table_entropies


def dist_from_probs(probs, realized=0):
    alts = tuple((f"t{i}", math.log(p)) for i, p in enumerate(probs))
    return TokenDistribution(
        token_text=f"t{realized}",
        token_logprob=math.log(probs[realized]),
        top_alternatives=alts,
    )


def test_uniform_four_entropy_is_ln4():
    dist = dist_from_probs([0.25, 0.25, 0.25, 0.25])
    assert token_entropy(dist, TruncationMode.EXACT) == pytest.approx(
        math.log(4), abs=1e-12
    )


def test_one_hot_entropy_is_zero():
    dist = dist_from_probs([1.0])
    for mode in TruncationMode:
        assert token_entropy(dist, mode) == 0.0


def test_hand_summed_skewed_entropy():
    # -(0.7 ln 0.7 + 0.2 ln 0.2 + 0.1 ln 0.1) = 0.801819...
    dist = dist_from_probs([0.7, 0.2, 0.1])
    assert token_entropy(dist, TruncationMode.EXACT) == pytest.approx(
        0.8018185525433373, abs=1e-12
    )


def test_tail_lump_counts_tail_as_pseudo_token():
    dist = dist_from_probs([0.5, 0.3])
    expected = -(0.5 * math.log(0.5) + 0.3 * math.log(0.3) + 0.2 * math.log(0.2))
    assert token_entropy(dist, TruncationMode.TAIL_LUMP) == pytest.approx(
        expected, abs=1e-12
    )


def test_exact_mode_rejects_tail():
    dist = dist_from_probs([0.5, 0.3])
    with pytest.raises(NormalizationError):
        token_entropy(dist, TruncationMode.EXACT)


def test_profile_average_is_mean():
    backend = ToyBackend(load_ngram_table(table_path("bigram_ab")))
    profile = entropy_profile(backend.score("a b a", "").tokens, TruncationMode.EXACT)
    assert profile.token_count == 3
    assert profile.average_entropy == pytest.approx(
        math.fsum(profile.per_token_entropy) / 3, abs=1e-15
    )


def test_single_token_profile_equals_its_entropy():
    backend = ToyBackend(load_ngram_table(table_path("bigram_ab")))
    profile = entropy_profile(backend.score("a", "").tokens, TruncationMode.EXACT)
    assert profile.average_entropy == profile.per_token_entropy[0]


def test_empty_scoring_rejected():
    with pytest.raises(DataIntegrityError, match="zero tokens"):
        entropy_profile((), TruncationMode.EXACT)


@pytest.mark.parametrize(
    "table_name,text",
    [
        ("bigram_ab", "a b a b"),
        ("uniform4", "a b a"),
        ("skewed", "p q r"),
        ("trigram", "m n o"),
        ("onehot_chain", "go left then right"),
        ("corpus_world", "q3a q3b"),
        ("corpus_world", "d9a d9b"),
    ],
)
def test_profile_matches_table_oracle(table_name, text):
    table = load_ngram_table(table_path(table_name))
    backend = ToyBackend(table)  # full top-k
    profile = entropy_profile(backend.score(text, "").tokens, TruncationMode.EXACT)
    expected = table_entropies(table, text)
    assert len(profile.per_token_entropy) == len(expected)
    for got, want in zip(profile.per_token_entropy, expected):
        assert got == pytest.approx(want, abs=1e-12)


def profile(values):
    values = tuple(values)
    return EntropyProfile(
        per_token_entropy=values,
        average_entropy=math.fsum(values) / len(values),
        token_count=len(values),
    )


def test_identical_profiles_zero_gain():
    backend = ToyBackend(load_ngram_table(table_path("bigram_ab")))
    a = entropy_profile(backend.score("a b", "").tokens, TruncationMode.EXACT)
    b = entropy_profile(backend.score("a b", "").tokens, TruncationMode.EXACT)
    assert info_gain(a, b) == 0.0


def test_gain_is_plain_subtraction():
    assert info_gain(profile([1.2]), profile([0.3])) == pytest.approx(0.9, abs=1e-12)


def test_negative_gain_allowed():
    assert info_gain(profile([0.2]), profile([0.5])) < 0


def test_classify_strict_threshold():
    assert classify(0.9, 0.1) is Verdict.PERCEIVED_AMBIGUOUS
    assert classify(0.1, 0.1) is Verdict.PERCEIVED_UNAMBIGUOUS
    assert classify(-0.2, 0.1) is Verdict.PERCEIVED_UNAMBIGUOUS


def test_uniform_query_vs_one_hot_rewrite_gains_ln4():
    # A query whose positions are all uniform over four tokens against a
    # rewrite whose positions are all one-hot: the gain is exactly ln 4.
    # The one-hot conditioning requires a distinct scoring prefix, since a
    # bare rewrite would share the query's sentence-initial distribution.
    from ambigkit.toy import NgramTable

    vocab = ("<s>", "u1", "u2", "c0", "d1", "d2", "</s>")
    uniform = {"u1": 0.25, "u2": 0.25, "d1": 0.25, "d2": 0.25}

    def vector(sparse):
        return tuple(sparse.get(tok, 0.0) for tok in vocab)

    table = NgramTable(
        vocabulary=vocab,
        order=2,
        begin_marker="<s>",
        end_marker="</s>",
        conditional_probs={
            ("<s>",): vector(uniform),
            ("u1",): vector(uniform),
            ("c0",): vector({"d1": 1.0}),
            ("d1",): vector({"d2": 1.0}),
        },
    )
    backend = ToyBackend(table)
    h_query = entropy_profile(backend.score("u1 u2", "").tokens, TruncationMode.EXACT)
    h_rewrite = entropy_profile(backend.score("d1 d2", "c0").tokens, TruncationMode.EXACT)
    gain = info_gain(h_query, h_rewrite)
    assert gain == pytest.approx(math.log(4), abs=1e-12)
    assert classify(gain, 0.1) is Verdict.PERCEIVED_AMBIGUOUS


# -- properties ---------------------------------------------------------------

prob_vectors = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8
).map(lambda ws: [w / math.fsum(ws) for w in ws])


@given(prob_vectors)
def test_entropy_non_negative_and_bounded(probs):
    dist = dist_from_probs(probs)
    h = token_entropy(dist, TruncationMode.TAIL_LUMP)
    assert h >= 0.0
    assert h <= math.log(len(probs)) + 1e-9


@given(prob_vectors, st.floats(min_value=0.0, max_value=0.5))
def test_tail_lump_bounded_by_support_size(probs, tail):
    dist = dist_from_probs([p * (1 - tail) for p in probs])
    h = token_entropy(dist, TruncationMode.TAIL_LUMP)
    atoms = len(probs) + (1 if dist.tail_mass > 0 else 0)
    assert h <= math.log(atoms) + 1e-9 if atoms > 1 else h <= 1e-12


@given(prob_vectors, st.floats(min_value=0.0, max_value=1e-9, exclude_max=True))
def test_tail_lump_within_bound_of_exact(probs, tail):
    # Wherever exact mode accepts a tail t, tail_lump adds only -t ln t.
    dist = dist_from_probs([p * (1 - tail) for p in probs])
    assume(dist.tail_mass < 1e-9)  # the derived tail can round above ``tail``
    exact = token_entropy(dist, TruncationMode.EXACT)
    lumped = token_entropy(dist, TruncationMode.TAIL_LUMP)
    assert 0.0 <= lumped - exact <= 2.1e-8


@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=6),
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=6),
)
def test_info_gain_antisymmetric(a_vals, b_vals):
    a, b = profile(a_vals), profile(b_vals)
    assert info_gain(a, b) == -info_gain(b, a)


@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-1, max_value=1),
)
@settings(max_examples=200)
def test_classify_monotone_in_gain(g1, g2, eps):
    lo, hi = min(g1, g2), max(g1, g2)
    if classify(lo, eps) is Verdict.PERCEIVED_AMBIGUOUS:
        assert classify(hi, eps) is Verdict.PERCEIVED_AMBIGUOUS


@given(prob_vectors)
def test_entropy_zero_only_for_one_hot(probs):
    dist = dist_from_probs(probs)
    h = token_entropy(dist, TruncationMode.TAIL_LUMP)
    assert h >= 0.0
    if max(probs) < 1 - 1e-9:
        assert h > 0.0
