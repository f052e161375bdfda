"""Independent oracles and test doubles.

The oracles here deliberately avoid the production code paths: the entropy
oracle reads n-gram table vectors directly, and the LCS oracle is a plain
recursive memoized implementation with exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ambigkit.backend import (
    Backend,
    FinishReason,
    GenerationParams,
    GenerationResult,
    ScoringResult,
    TokenDistribution,
)
from ambigkit.toy import NgramTable


def table_entropies(table: NgramTable, text: str, context: str = "") -> list[float]:
    """Per-position entropies of ``text`` by direct summation over the stored
    (or uniform-fallback) vectors; no backend involved."""
    n = table.order - 1
    tokens = context.split() + text.split()
    start = len(context.split())
    entropies = []
    for pos in range(start, len(tokens)):
        window = ([table.begin_marker] * n + tokens[:pos])[-n:] if n else []
        vector = table.conditional_probs.get(tuple(window))
        if vector is None:
            vector = [1.0 / len(table.vocabulary)] * len(table.vocabulary)
        entropies.append(math.fsum(-p * math.log(p) for p in vector if p > 0.0))
    return entropies


def table_average_entropy(table: NgramTable, text: str, context: str = "") -> float:
    values = table_entropies(table, text, context)
    return math.fsum(values) / len(values)


def lcs_oracle(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Top-down memoized LCS length."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def rouge_oracle(pred: tuple[str, ...], refs: list[tuple[str, ...]]) -> float:
    """Exact-rational LCS F-measure, maximized over references."""
    best = Fraction(0)
    for ref in refs:
        if not pred or not ref:
            continue
        lcs = lcs_oracle(pred, ref)
        if lcs == 0:
            continue
        p = Fraction(lcs, len(pred))
        r = Fraction(lcs, len(ref))
        best = max(best, 2 * p * r / (p + r))
    return float(best)


class ScriptedBackend(Backend):
    """Returns canned continuations: exact-prompt lookup first, then substring
    rules, else a default. Scoring is unsupported."""

    def __init__(
        self,
        exact: dict[str, str] | None = None,
        rules: list[tuple[str, str]] | None = None,
        default: str = "",
        sampled: dict[str, list[str]] | None = None,
    ):
        self.exact = exact or {}
        self.rules = rules or []
        self.default = default
        self.sampled = sampled or {}
        self._sample_cursor: dict[str, int] = {}
        self.calls: list[tuple[str, GenerationParams]] = []
        self.parallelism = 1

    def _lookup(self, prompt: str) -> str:
        if prompt in self.exact:
            return self.exact[prompt]
        for needle, reply in self.rules:
            if needle in prompt:
                return reply
        return self.default

    def generate(self, prompt: str, params: GenerationParams) -> GenerationResult:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        self.calls.append((prompt, params))
        if params.temperature > 0 and prompt in self.sampled:
            outputs = self.sampled[prompt]
            cursor = self._sample_cursor.get(prompt, 0)
            text = outputs[cursor % len(outputs)]
            self._sample_cursor[prompt] = cursor + 1
        else:
            text = self._lookup(prompt)
        dist = TokenDistribution(
            token_text=text or " ",
            token_logprob=0.0,
            top_alternatives=((text or " ", 0.0),),
            tail_mass=0.0,
        )
        return GenerationResult(
            text=text, tokens=(dist,), finish_reason=FinishReason.STOP
        )

    def score(self, text: str, context: str = "") -> ScoringResult:
        raise NotImplementedError("scripted backend does not score")
