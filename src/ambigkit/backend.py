"""Uniform text-generation and teacher-forced scoring interface.

A backend has one model call, ``complete``: it continues a prompt and, when
asked, also echoes the distributions of the prompt's characters from a given
index to its end. Generation is ``complete`` without echo; scoring is
``complete`` with ``max_tokens`` 0 and the echo starting at the context's end.
Every generated or echoed position carries the model's next-token
distribution information: the realized token's logprob, the top-k
alternatives, and the probability mass not covered by them. All logprobs are
natural-log (nats) everywhere; no base conversion is ever applied.
"""

from __future__ import annotations

import abc
import enum
import math
from dataclasses import dataclass, field

from .errors import NormalizationError

NORMALIZATION_TOLERANCE = 1e-6  # how far a listed mass may exceed 1
_SIGN_TOLERANCE = 1e-9  # how far a realized logprob may exceed 0

# Pool threads per worker in bounded_map: a sample waiting out a retry
# backoff holds a thread but no connection, so spare threads let other
# samples use that connection meanwhile. A backoff ends at the server's first
# answer to a request sent after the failure, so they matter most while no
# such answer comes: the server is refusing everything, or rate-limiting.
# With four per worker, `parallelism` samples can still run while up to
# 3 × `parallelism` samples back off, as a burst of refused requests at the
# head of a map does.
_THREADS_PER_WORKER = 4


class FinishReason(enum.Enum):
    STOP = "stop"
    LENGTH = "length"
    ERROR = "error"


@dataclass(frozen=True)
class GenerationParams:
    """Decoding choices for one completion call.

    temperature 0 means greedy decoding. ``seed`` makes sampled decoding
    reproducible where the backend honors it. ``max_tokens`` 0 asks for no
    continuation, as scoring does.
    """

    max_tokens: int = 64
    temperature: float = 0.0
    stop_sequences: tuple[str, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_tokens < 0:
            raise ValueError("max_tokens must be >= 0")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")


@dataclass(frozen=True)
class TokenDistribution:
    """Next-token distribution information at one position.

    ``top_alternatives`` lists (token_text, logprob) pairs, at least one
    above -inf, stored in descending logprob, ties by token; a -inf one is
    dropped. ``tail_mass`` is derived, 1 minus their mass floored at 0, so
    equal listings give equal tails on every backend; a mass above 1 +
    NORMALIZATION_TOLERANCE, or NaN, is refused. The realized token need not
    be modal, but appears among the alternatives whenever its probability
    exceeds the k-th alternative's. Its logprob is above -inf and, where it
    is listed, within NORMALIZATION_TOLERANCE of its listed one.
    """

    token_text: str
    token_logprob: float
    top_alternatives: tuple[tuple[str, float], ...]
    tail_mass: float = field(init=False)

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not self.token_logprob <= _SIGN_TOLERANCE:
            raise NormalizationError(
                f"token_logprob must be <= 0, got {self.token_logprob}"
            )
        if self.token_logprob == -math.inf:
            raise NormalizationError(f"token {self.token_text!r} has logprob -inf")
        listed = [(token, lp) for token, lp in self.top_alternatives if lp != -math.inf]
        if not listed:
            raise NormalizationError("distribution lists no alternatives")
        own = dict(listed).get(self.token_text)
        if own is not None and not abs(own - self.token_logprob) <= NORMALIZATION_TOLERANCE:
            raise NormalizationError(
                f"token {self.token_text!r} has logprob {self.token_logprob} "
                f"but {own} in its own top_logprobs entry"
            )
        ranked = tuple(sorted(listed, key=lambda kv: (-kv[1], kv[0])))
        covered = math.fsum(math.exp(lp) for _, lp in ranked)
        if not covered <= 1.0 + NORMALIZATION_TOLERANCE:
            raise NormalizationError(
                f"alternative mass {covered:.9f} exceeds 1 + {NORMALIZATION_TOLERANCE}"
            )
        object.__setattr__(self, "top_alternatives", ranked)
        object.__setattr__(self, "tail_mass", max(0.0, 1.0 - covered))

    def alternative_probs(self) -> list[float]:
        """Probabilities of the listed alternatives, in listed order."""
        return [math.exp(lp) for _, lp in self.top_alternatives]


@dataclass(frozen=True)
class GenerationResult:
    """A model continuation plus per-token distribution data, and the
    distributions of the echoed part of the prompt, if any."""

    text: str
    tokens: tuple[TokenDistribution, ...]
    finish_reason: FinishReason
    echoed: tuple[TokenDistribution, ...] = ()


@dataclass(frozen=True)
class ScoringResult:
    """Teacher-forced distributions, one per token of the scored text."""

    tokens: tuple[TokenDistribution, ...]

    @property
    def token_count(self) -> int:
        return len(self.tokens)


class Backend(abc.ABC):
    """Shared interface for the toy oracle backend and remote HTTP backends.

    Implementations are immutable after construction and safe to share across
    concurrent workers. Callers map samples with ``bounded_map(fn, samples,
    backend.parallelism)``, which starts up to ``4 × parallelism`` samples at
    once; a remote backend bounds its requests in flight to ``parallelism``
    with its connection pool.
    """

    parallelism: int

    @abc.abstractmethod
    def complete(self, prompt: str, params: GenerationParams, *,
                 echo_from: int | None = None) -> GenerationResult:
        """Continue ``prompt`` by up to ``params.max_tokens`` tokens. With
        ``echo_from``, also return in ``echoed`` one TokenDistribution per
        token of ``prompt[echo_from:]``, teacher-forced after
        ``prompt[:echo_from]``."""

    def generate(self, prompt: str, params: GenerationParams) -> GenerationResult:
        """Continue ``prompt``. Raises ValueError on an empty prompt."""
        if not prompt:
            raise ValueError("prompt must be non-empty")
        return self.complete(prompt, params)

    def score(self, text: str, context: str = "") -> ScoringResult:
        """One TokenDistribution per token of ``text``, teacher-forced after
        ``context``. Raises ValueError on empty text."""
        if not text:
            raise ValueError("text must be non-empty")
        # An integer 0, as scoring bodies carry it: journal keys hash the bytes.
        params = GenerationParams(max_tokens=0, temperature=0)
        return ScoringResult(self.complete(context + text, params, echo_from=len(context)).echoed)

    def close(self) -> None:
        """Release what the backend holds open; the default holds nothing."""


def bounded_map(fn, items, max_workers: int) -> list:
    """Order-preserving map over ``items`` on ``_THREADS_PER_WORKER *
    max_workers`` threads, which take items in input order.

    The map bounds no backend traffic: a remote backend's connection pool
    does. The spare threads keep that pool busy while samples wait out retry
    backoffs, at every parallelism. Exceptions propagate;
    ``evalkit.run_each`` is the caller that tolerates failed samples.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=_THREADS_PER_WORKER * max_workers) as pool:
        return list(pool.map(fn, items))
