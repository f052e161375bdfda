from __future__ import annotations

import math
import threading

import pytest

from ambigkit.backend import (
    GenerationParams,
    ScoringResult,
    TokenDistribution,
    bounded_map,
)
from ambigkit.errors import NormalizationError
from ambigkit.toy import ToyBackend, load_ngram_table

from conftest import table_path


def test_params_validate_temperature():
    with pytest.raises(ValueError):
        GenerationParams(temperature=-0.1)


@pytest.mark.parametrize("temperature", [math.nan, math.inf])
def test_params_refuse_a_non_finite_temperature(temperature):
    # A remote request would carry it as a bare NaN or Infinity, not JSON.
    with pytest.raises(ValueError, match="temperature must be finite"):
        GenerationParams(temperature=temperature)


def test_params_validate_max_tokens():
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=-1)
    assert GenerationParams(max_tokens=0).max_tokens == 0  # scoring asks for no tokens


def test_distribution_refuses_listed_mass_above_one():
    with pytest.raises(NormalizationError, match="exceeds 1 +"):
        TokenDistribution(
            token_text="a",
            token_logprob=math.log(0.5),
            top_alternatives=(("a", math.log(0.5)), ("b", math.log(0.5 + 2e-6))),
        )


def test_distribution_derives_its_tail_and_order():
    within = TokenDistribution(
        token_text="a",
        token_logprob=math.log(0.5),
        top_alternatives=(("a", math.log(0.5)), ("b", math.log(0.5 + 5e-7))),
    )
    assert within.tail_mass == 0.0
    dist = TokenDistribution(
        token_text="b",
        token_logprob=math.log(0.2),
        top_alternatives=(("c", math.log(0.2)), ("a", math.log(0.3)), ("b", math.log(0.2))),
    )
    assert [token for token, _ in dist.top_alternatives] == ["a", "b", "c"]
    assert dist.tail_mass == pytest.approx(0.3, abs=1e-15)


def test_distribution_rejects_positive_logprob():
    with pytest.raises(NormalizationError):
        TokenDistribution(
            token_text="a",
            token_logprob=0.2,
            top_alternatives=(("a", 0.0),),
        )


def test_distribution_refuses_a_realized_token_of_probability_zero():
    with pytest.raises(NormalizationError, match="token 'a' has logprob -inf"):
        TokenDistribution("a", -math.inf, (("a", -math.inf), ("b", 0.0)))


def test_distribution_refuses_a_realized_token_listed_at_another_logprob():
    with pytest.raises(NormalizationError, match="own top_logprobs entry"):
        TokenDistribution("a", math.log(0.9), (("a", math.log(0.1)), ("b", math.log(0.9))))
    # Within the tolerance the listed logprob is kept.
    dist = TokenDistribution("a", math.log(0.5), (("a", math.log(0.5) + 1e-7),))
    assert dist.top_alternatives == (("a", math.log(0.5) + 1e-7),)


def test_distribution_drops_alternatives_of_probability_zero():
    dist = TokenDistribution("a", math.log(0.9), (("b", -math.inf), ("a", math.log(0.9))))
    assert dist.top_alternatives == (("a", math.log(0.9)),)
    assert dist.tail_mass == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(NormalizationError, match="no alternatives"):
        TokenDistribution("a", math.log(0.5), (("a", -math.inf),))


def test_distribution_rejects_empty_alternatives():
    # Normalized (the tail carries all the mass), but no entropy rests on it.
    with pytest.raises(NormalizationError, match="no alternatives"):
        TokenDistribution(
            token_text="a",
            token_logprob=math.log(0.5),
            top_alternatives=(),
        )


@pytest.mark.parametrize(
    "token_logprob, alternatives",
    [
        (math.nan, (("a", 0.0),)),
        (math.log(0.5), (("a", math.log(0.5)), ("b", math.nan))),
    ],
    ids=["token_logprob", "alternative"],
)
def test_distribution_rejects_nan(token_logprob, alternatives):
    with pytest.raises(NormalizationError):
        TokenDistribution(
            token_text="a",
            token_logprob=token_logprob,
            top_alternatives=alternatives,
        )


def test_distribution_tolerates_float_fuzz():
    dist = TokenDistribution(
        token_text="a",
        token_logprob=math.log(0.7),
        top_alternatives=(("a", math.log(0.7)), ("b", math.log(0.3))),
    )
    assert dist.alternative_probs() == pytest.approx([0.7, 0.3], abs=1e-12)


def test_realized_token_listed_when_probable():
    # With top_k=2 on the (0.5, 0.3, 0.15, 0.05) vector, any realized token
    # with probability above the 2nd alternative's must be listed.
    backend = ToyBackend(load_ngram_table(table_path("skewed")), top_k=2)
    dist = backend.score("p", "").tokens[0]
    listed = {t for t, _ in dist.top_alternatives}
    k_th = min(math.exp(lp) for _, lp in dist.top_alternatives)
    realized_prob = math.exp(dist.token_logprob)
    if realized_prob > k_th:
        assert dist.token_text in listed


def test_scoring_result_counts_tokens():
    assert ScoringResult(tokens=()).token_count == 0


def test_bounded_map_preserves_order():
    items = list(range(25))
    assert bounded_map(lambda x: x * x, items, max_workers=4) == [x * x for x in items]


def test_bounded_map_serial_path():
    assert bounded_map(str, [1], max_workers=8) == ["1"]


def test_bounded_map_runs_four_threads_per_worker():
    # Twelve items meet at the barrier only if twelve run at once; no more
    # than twelve threads may run them.
    barrier = threading.Barrier(12, timeout=5)
    lock = threading.Lock()
    threads = set()

    def item(x: int) -> int:
        with lock:
            threads.add(threading.get_ident())
        barrier.wait()
        return x * x

    items = list(range(36))
    assert bounded_map(item, items, 3) == [x * x for x in items]
    assert len(threads) <= 12
