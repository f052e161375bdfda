from __future__ import annotations

import math

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


def test_params_validate_max_tokens():
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=0)


def test_distribution_requires_normalization():
    with pytest.raises(NormalizationError):
        TokenDistribution(
            token_text="a",
            token_logprob=math.log(0.5),
            top_alternatives=(("a", math.log(0.5)),),
            tail_mass=0.0,  # covered mass is only 0.5
        )


def test_distribution_rejects_positive_logprob():
    with pytest.raises(NormalizationError):
        TokenDistribution(
            token_text="a",
            token_logprob=0.2,
            top_alternatives=(("a", 0.0),),
            tail_mass=0.0,
        )


def test_distribution_rejects_negative_tail():
    with pytest.raises(NormalizationError):
        TokenDistribution(
            token_text="a",
            token_logprob=0.0,
            top_alternatives=(("a", 0.0),),
            tail_mass=-0.5,
        )


@pytest.mark.parametrize(
    "token_logprob, alternatives, tail_mass",
    [
        (math.nan, (("a", 0.0),), 0.0),
        (math.log(0.5), (("a", math.log(0.5)), ("b", math.nan)), 0.5),
        (0.0, (("a", 0.0),), math.nan),
    ],
    ids=["token_logprob", "alternative", "tail_mass"],
)
def test_distribution_rejects_nan(token_logprob, alternatives, tail_mass):
    with pytest.raises(NormalizationError):
        TokenDistribution(
            token_text="a",
            token_logprob=token_logprob,
            top_alternatives=alternatives,
            tail_mass=tail_mass,
        )


def test_distribution_tolerates_float_fuzz():
    dist = TokenDistribution(
        token_text="a",
        token_logprob=math.log(0.7),
        top_alternatives=(("a", math.log(0.7)), ("b", math.log(0.3))),
        tail_mass=0.0,
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
