"""Token entropy, average sentence entropy, information gain, and the
threshold verdict.

All entropies are natural-log (nats). The per-position entropy is
-sum(p * ln p) over the distribution's effective support, with 0 * ln 0
treated as 0. Remote backends only expose the top-k alternatives, so two
truncation policies are provided. Every structural check of a distribution
lives in ``TokenDistribution``; here only exact mode's tail bound is checked.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .backend import TokenDistribution
from .errors import DataIntegrityError, NormalizationError

_TAIL_TOLERANCE = 1e-9


class TruncationMode(enum.Enum):
    """How to treat probability mass beyond the listed top-k alternatives.

    TAIL_LUMP folds the uncovered mass into one pseudo-token (default).
    EXACT requires the listed alternatives to cover everything (tail below
    1e-9); reserved for full-vocabulary oracle backends. Wherever EXACT
    succeeds, TAIL_LUMP differs from it by at most -t ln t <= 2.1e-8 nats.
    """

    TAIL_LUMP = "tail_lump"
    EXACT = "exact"


class Verdict(enum.Enum):
    PERCEIVED_AMBIGUOUS = "perceived_ambiguous"
    PERCEIVED_UNAMBIGUOUS = "perceived_unambiguous"


@dataclass(frozen=True)
class EntropyProfile:
    """Per-position entropies of one text and their unweighted mean."""

    per_token_entropy: tuple[float, ...]
    average_entropy: float
    token_count: int


def _plogp(p: float) -> float:
    return -p * math.log(p) if p > 0.0 else 0.0


def token_entropy(dist: TokenDistribution, mode: TruncationMode) -> float:
    """Entropy in nats of one position's distribution under ``mode``."""
    if mode is TruncationMode.EXACT and dist.tail_mass >= _TAIL_TOLERANCE:
        raise NormalizationError(
            f"exact mode requires tail_mass < {_TAIL_TOLERANCE}, got {dist.tail_mass}"
        )
    entropy = math.fsum(_plogp(p) for p in dist.alternative_probs())
    if mode is TruncationMode.EXACT:
        return entropy
    return entropy + _plogp(dist.tail_mass)


def entropy_profile(tokens: Sequence[TokenDistribution], mode: TruncationMode) -> EntropyProfile:
    """Entropies of a text's distributions, one per token, and their mean."""
    if not tokens:
        raise DataIntegrityError("cannot build an entropy profile from zero tokens")
    entropies = tuple(token_entropy(t, mode) for t in tokens)
    return EntropyProfile(
        per_token_entropy=entropies,
        average_entropy=math.fsum(entropies) / len(entropies),
        token_count=len(entropies),
    )


def info_gain(h_query: EntropyProfile, h_disambig: EntropyProfile) -> float:
    """Average-entropy difference query minus disambiguation; may be negative."""
    return h_query.average_entropy - h_disambig.average_entropy


def classify(gain: float, epsilon: float) -> Verdict:
    """Ambiguous iff the gain strictly exceeds epsilon."""
    if gain > epsilon:
        return Verdict.PERCEIVED_AMBIGUOUS
    return Verdict.PERCEIVED_UNAMBIGUOUS

