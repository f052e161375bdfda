"""Uniform text-generation and teacher-forced scoring interface.

A backend produces, for every generated or scored position, the model's
next-token distribution information: the realized token's logprob, the top-k
alternatives, and the probability mass not covered by them. All logprobs are
natural-log (nats) everywhere; no base conversion is ever applied.
"""

from __future__ import annotations

import abc
import contextlib
import enum
import math
import threading
from dataclasses import dataclass

from .errors import NormalizationError

# Tolerance on |sum(probs) + tail_mass - 1| for a distribution to count as
# normalized, and on logprob/tail sign checks.
NORMALIZATION_TOLERANCE = 1e-6
_SIGN_TOLERANCE = 1e-9

# Pool threads per slot in bounded_map: an item that lends its slot while it
# waits leaves a thread free to start another item in that slot.
_THREADS_PER_SLOT = 2


class FinishReason(enum.Enum):
    STOP = "stop"
    LENGTH = "length"
    ERROR = "error"


@dataclass(frozen=True)
class GenerationParams:
    """Decoding choices for one generation call.

    temperature 0 means greedy decoding. ``seed`` makes sampled decoding
    reproducible where the backend honors it.
    """

    max_tokens: int = 64
    temperature: float = 0.0
    stop_sequences: tuple[str, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class TokenDistribution:
    """Next-token distribution information at one position.

    ``top_alternatives`` lists (token_text, logprob) pairs in descending
    probability; ``tail_mass`` is the probability not covered by them. The
    realized token need not be modal, but appears among the alternatives
    whenever its probability exceeds the k-th alternative's.
    """

    token_text: str
    token_logprob: float
    top_alternatives: tuple[tuple[str, float], ...]
    tail_mass: float

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not self.token_logprob <= _SIGN_TOLERANCE:
            raise NormalizationError(
                f"token_logprob must be <= 0, got {self.token_logprob}"
            )
        if not self.tail_mass >= -_SIGN_TOLERANCE:
            raise NormalizationError(f"tail_mass must be >= 0, got {self.tail_mass}")
        covered = math.fsum(math.exp(lp) for _, lp in self.top_alternatives)
        total = covered + self.tail_mass
        if not abs(total - 1.0) <= NORMALIZATION_TOLERANCE:
            raise NormalizationError(
                f"alternative mass {covered:.9f} + tail {self.tail_mass:.9f} "
                f"= {total:.9f}, not 1 within {NORMALIZATION_TOLERANCE}"
            )

    def alternative_probs(self) -> list[float]:
        """Probabilities of the listed alternatives, in listed order."""
        return [math.exp(lp) for _, lp in self.top_alternatives]


@dataclass(frozen=True)
class GenerationResult:
    """A model continuation plus per-token distribution data."""

    text: str
    tokens: tuple[TokenDistribution, ...]
    finish_reason: FinishReason


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
    backend.parallelism)``, so at most ``parallelism`` samples work at once;
    a backend that waits between attempts of a call does so inside
    ``slot_lent()``.
    """

    parallelism: int

    @abc.abstractmethod
    def generate(self, prompt: str, params: GenerationParams) -> GenerationResult:
        """Continue ``prompt`` and return the continuation with token data.

        Raises ValueError on an empty prompt.
        """

    @abc.abstractmethod
    def score(self, text: str, context: str = "") -> ScoringResult:
        """Teacher-force ``text`` after ``context`` and return one
        TokenDistribution per token of ``text`` only.

        Raises ValueError on empty text.
        """

    def close(self) -> None:
        """Release what the backend holds open; the default holds nothing."""


# The slot semaphore of the bounded_map pool this thread belongs to; unset on
# every other thread.
_item = threading.local()


@contextlib.contextmanager
def slot_lent():
    """Inside the block, the calling ``bounded_map`` item gives its slot to
    another item, and takes a slot back on leaving. For a wait that uses no
    shared resource, such as a retry backoff. Outside a pooled item it does
    nothing."""
    slots = getattr(_item, "slots", None)
    if slots is None:
        yield
        return
    slots.release()
    try:
        yield
    finally:
        slots.acquire()


def bounded_map(fn, items, max_workers: int) -> list:
    """Order-preserving map over ``items``: at most ``max_workers`` items work
    at once, each holding one of ``max_workers`` slots.

    ``_THREADS_PER_SLOT * max_workers`` threads take items in input order, so
    while an item waits inside ``slot_lent()``, another starts in its slot.
    With one worker or one item the map runs serially on the calling thread.
    Exceptions propagate; callers that tolerate per-item failures catch them
    inside ``fn``.
    """
    items = list(items)
    if max_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    slots = threading.Semaphore(max_workers)

    def claim() -> None:
        _item.slots = slots

    def run(item):
        with slots:
            return fn(item)

    with ThreadPoolExecutor(max_workers=_THREADS_PER_SLOT * max_workers,
                            initializer=claim) as pool:
        return list(pool.map(run, items))
