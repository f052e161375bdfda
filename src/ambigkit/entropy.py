"""Token entropy, average sentence entropy, information gain, and the
threshold verdict.

All entropies are natural-log (nats). The per-position entropy is
-sum(p * ln p) over the distribution's effective support, with 0 * ln 0
treated as 0. Remote backends only expose the top-k alternatives, so three
truncation policies are provided; entropies are comparable only within one
mode, which every profile and report records.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .backend import ScoringResult, TokenDistribution
from .errors import ConfigurationError, EmptyInputError, NormalizationError

_TAIL_TOLERANCE = 1e-9


class TruncationMode(enum.Enum):
    """How to treat probability mass beyond the listed top-k alternatives.

    TAIL_LUMP folds the uncovered mass into one pseudo-token (default).
    RENORMALIZE rescales the listed alternatives to sum to one.
    EXACT requires the listed alternatives to cover everything (tail below
    1e-9); reserved for full-vocabulary oracle backends.
    """

    TAIL_LUMP = "tail_lump"
    RENORMALIZE = "renormalize"
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
    truncation_mode: TruncationMode


def _plogp(p: float) -> float:
    return -p * math.log(p) if p > 0.0 else 0.0


def token_entropy(dist: TokenDistribution, mode: TruncationMode) -> float:
    """Entropy in nats of one position's distribution under ``mode``."""
    if dist.tail_mass < -_TAIL_TOLERANCE:
        raise NormalizationError(f"negative tail_mass {dist.tail_mass}")
    probs = dist.alternative_probs()
    if not probs:
        raise NormalizationError("distribution lists no alternatives")
    if mode is TruncationMode.EXACT:
        if dist.tail_mass >= _TAIL_TOLERANCE:
            raise NormalizationError(
                f"exact mode requires tail_mass < {_TAIL_TOLERANCE}, "
                f"got {dist.tail_mass}"
            )
        return math.fsum(_plogp(p) for p in probs)
    if mode is TruncationMode.TAIL_LUMP:
        return math.fsum(_plogp(p) for p in probs) + _plogp(max(dist.tail_mass, 0.0))
    # RENORMALIZE
    total = math.fsum(probs)
    if total <= 0.0:
        raise NormalizationError("alternatives carry no probability mass")
    return math.fsum(_plogp(p / total) for p in probs)


def entropy_profile(scoring: ScoringResult, mode: TruncationMode) -> EntropyProfile:
    """Per-token entropies of a scored text, averaged over its tokens."""
    if scoring.token_count == 0:
        raise EmptyInputError("cannot build an entropy profile from zero tokens")
    entropies = tuple(token_entropy(t, mode) for t in scoring.tokens)
    return EntropyProfile(
        per_token_entropy=entropies,
        average_entropy=math.fsum(entropies) / len(entropies),
        token_count=len(entropies),
        truncation_mode=mode,
    )


def info_gain(h_query: EntropyProfile, h_disambig: EntropyProfile) -> float:
    """Average-entropy difference query minus disambiguation; may be negative."""
    if h_query.truncation_mode is not h_disambig.truncation_mode:
        raise ConfigurationError(
            "cannot compare entropy profiles computed under different "
            f"truncation modes ({h_query.truncation_mode.value} vs "
            f"{h_disambig.truncation_mode.value})"
        )
    return h_query.average_entropy - h_disambig.average_entropy


def classify(gain: float, epsilon: float) -> Verdict:
    """Ambiguous iff the gain strictly exceeds epsilon."""
    if not math.isfinite(epsilon):
        raise ConfigurationError(f"epsilon must be finite, got {epsilon}")
    if gain > epsilon:
        return Verdict.PERCEIVED_AMBIGUOUS
    return Verdict.PERCEIVED_UNAMBIGUOUS

