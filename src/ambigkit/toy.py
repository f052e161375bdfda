"""Deterministic n-gram oracle backend for exact-arithmetic tests.

The model is a fully explicit n-gram table over a small vocabulary:
whitespace tokenization, implicit begin/end markers, and a uniform fallback
for unseen contexts. Every distribution it reports lists the natural logs
of the stored probabilities of the top-k tokens (ties in vocabulary order,
zeros dropped), never truncated further, so entropy computed downstream can
be checked against direct summation over the table. The tail is derived by
``TokenDistribution`` from the listed logprobs, as for a remote server's
answer, so a server that lists these logprobs yields equal distributions.

Fixture files are YAML documents::

    order: 2
    begin_marker: "<s>"
    end_marker: "</s>"
    vocabulary: ["<s>", "a", "b", "</s>"]
    rows:
      "<s>": {a: 1/2, b: 1/2}
      "a":   {b: 1.0}
      "b":   {"</s>": 1.0}

Row keys are the (order-1) context tokens joined by single spaces (the empty
string for a unigram table); row values map tokens to probabilities; omitted
tokens have probability zero. Contexts absent from ``rows`` fall back to the
uniform vector over the vocabulary. The document holds these five keys and
no other. Fields are typed as in the dataset (``jsonio.typed_field``), never
coerced: ``order`` is a whole number; markers,
vocabulary entries, row keys and row tokens are strings, so a YAML word such
as ``yes``, ``no``, ``on``, ``off`` or ``null``, or a bare number, must be
quoted to be a token; a probability is a finite number or a "p/q" fraction
string, never a boolean. A fixture that is not such a document, or whose
table breaks one of these rules, is refused with a ParseError naming it.

Unlike subword backends, the toy model tokenizes the prompt's context
(``prompt[:echo_from]``) and its echoed text (``prompt[echo_from:]``)
independently in ``complete``; tokens are single-space separated, which
keeps detokenization byte-reversible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import yaml

from .backend import (
    Backend,
    FinishReason,
    GenerationParams,
    GenerationResult,
    TokenDistribution,
)
from .errors import DataIntegrityError, NormalizationError, ParseError, VocabularyError
from .jsonio import input_file, record_at, refuse_unknown, typed_field

_VECTOR_SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class NgramTable:
    """Explicit conditional probability tables of an order-n model."""

    vocabulary: tuple[str, ...]
    order: int
    begin_marker: str
    end_marker: str
    conditional_probs: dict[tuple[str, ...], tuple[float, ...]]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise DataIntegrityError("order must be >= 1")
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise DataIntegrityError("vocabulary contains duplicate tokens")
        for marker in (self.begin_marker, self.end_marker):
            if marker not in self.vocabulary:
                raise VocabularyError(marker)
        for context, vector in self.conditional_probs.items():
            if len(context) != self.order - 1:
                raise DataIntegrityError(
                    f"context {context!r} has length {len(context)}, "
                    f"expected {self.order - 1}"
                )
            for token in context:
                if token not in self.vocabulary:
                    raise VocabularyError(token)
            if len(vector) != len(self.vocabulary):
                raise DataIntegrityError(
                    f"vector for context {context!r} has {len(vector)} entries, "
                    f"expected {len(self.vocabulary)}"
                )
            if any(p < 0 for p in vector):
                raise NormalizationError(f"negative probability in {context!r}")
            total = math.fsum(vector)
            if abs(total - 1.0) > _VECTOR_SUM_TOLERANCE:
                raise NormalizationError(
                    f"vector for context {context!r} sums to {total!r}"
                )

    @cached_property
    def token_index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.vocabulary)}

    def next_distribution(self, context: tuple[str, ...] | list[str]) -> tuple[float, ...]:
        """Full probability vector after ``context`` (last order-1 tokens).

        Stored vector verbatim when the context is in the table, otherwise the
        uniform vector. Out-of-vocabulary context tokens raise VocabularyError.
        """
        context = tuple(context)
        for token in context:
            if token not in self.token_index:
                raise VocabularyError(token)
        if len(context) != self.order - 1:
            raise DataIntegrityError(
                f"context length {len(context)} != order-1 = {self.order - 1}"
            )
        stored = self.conditional_probs.get(context)
        if stored is not None:
            return stored
        return tuple([1.0 / len(self.vocabulary)] * len(self.vocabulary))


def _parse_prob(value: object, where: str) -> float:
    if type(value) in (int, float, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DataIntegrityError(f"bad probability {value!r} in {where}") from exc
    raise DataIntegrityError(f"bad probability {value!r} in {where}")


def load_ngram_table(path: str | Path) -> NgramTable:
    """Load and validate a table fixture from a YAML file."""
    with input_file(path), open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ParseError(f"not valid YAML: {exc}", where=path) from exc
    with record_at(path):
        if not isinstance(doc, dict):
            raise TypeError("fixture must be a mapping")
        refuse_unknown(doc.keys() - {"order", "begin_marker", "end_marker", "vocabulary", "rows"})
        vocabulary = typed_field(doc, "vocabulary", tuple)
        rows = doc.get("rows", {}) or {}
        if not isinstance(rows, dict):
            raise TypeError("fixture rows must be a mapping")
        index = {tok: i for i, tok in enumerate(vocabulary)}
        tables: dict[tuple[str, ...], tuple[float, ...]] = {}
        for key, sparse in rows.items():
            sparse = sparse or {}
            if type(key) is not str:
                raise TypeError(f"fixture row key {key!r} must be a string")
            if not isinstance(sparse, dict):
                raise TypeError(f"fixture row {key!r} must be a mapping")
            vector = [0.0] * len(vocabulary)
            for token, prob in sparse.items():
                if token not in index:
                    raise VocabularyError(token)
                vector[index[token]] = _parse_prob(prob, f"row {key!r}")
            tables[tuple(key.split())] = tuple(vector)
        return NgramTable(vocabulary, typed_field(doc, "order", int),
                          typed_field(doc, "begin_marker", str),
                          typed_field(doc, "end_marker", str), tables)


class ToyBackend(Backend):
    """Backend view of an NgramTable: exact table arithmetic, no truncation
    beyond the requested top-k, greedy ties broken by vocabulary order.

    The handle's ``top_k`` governs the alternatives reported by both
    generation and scoring, so round-trips stay exact.
    """

    def __init__(self, table: NgramTable, top_k: int | None = None, parallelism: int = 4):
        if top_k is None:
            top_k = len(table.vocabulary)
        if not 1 <= top_k <= len(table.vocabulary):
            raise ValueError(
                f"top_k must be in [1, {len(table.vocabulary)}], got {top_k}"
            )
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.table = table
        self.top_k = top_k
        self.parallelism = parallelism

    # -- internals ---------------------------------------------------------

    def _tokenize(self, text: str) -> list[str]:
        return text.split()

    def _window(self, tokens: list[str]) -> tuple[str, ...]:
        n = self.table.order - 1
        padded = [self.table.begin_marker] * n + tokens
        return tuple(padded[len(padded) - n :]) if n else ()

    def _distribution_for(
        self, vector: tuple[float, ...], realized: str, piece: str
    ) -> TokenDistribution:
        p = vector[self.table.token_index[realized]]
        if p <= 0.0:
            raise NormalizationError(
                f"token {realized!r} has zero probability in its context"
            )
        ranked = sorted(range(len(vector)), key=lambda i: (-vector[i], i))[: self.top_k]
        # Zero-probability entries can enter the top-k when it exceeds the
        # support; drop them so log stays finite.
        alternatives = tuple(
            (self.table.vocabulary[i], math.log(vector[i])) for i in ranked if vector[i] > 0
        )
        return TokenDistribution(
            token_text=piece, token_logprob=math.log(p), top_alternatives=alternatives
        )

    def _choose(
        self, vector: tuple[float, ...], temperature: float, rng: random.Random
    ) -> str:
        if temperature == 0.0:
            best = max(range(len(vector)), key=lambda i: (vector[i], -i))
            return self.table.vocabulary[best]
        weights = [p ** (1.0 / temperature) if p > 0 else 0.0 for p in vector]
        total = math.fsum(weights)
        draw = rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if draw < acc:
                return self.table.vocabulary[i]
        # Rounding, or a temperature low enough to underflow every weight, can
        # leave the draw at the total: the last token of nonzero probability.
        return self.table.vocabulary[max(i for i, p in enumerate(vector) if p > 0)]

    # -- Backend API -------------------------------------------------------

    def complete(self, prompt: str, params: GenerationParams, *,
                 echo_from: int | None = None) -> GenerationResult:
        split = len(prompt) if echo_from is None else echo_from
        tokens, text_tokens = self._tokenize(prompt[:split]), self._tokenize(prompt[split:])
        if echo_from is not None and not text_tokens:
            raise ValueError("text tokenizes to nothing")
        for token in tokens + text_tokens:
            if token not in self.table.token_index:
                raise VocabularyError(token)
        # An echoed token is spelled as in the whole prompt, wherever the
        # echo starts: the prompt's first token bare, every later one after
        # a space.
        echoed = []
        for token in text_tokens:
            vector = self.table.next_distribution(self._window(tokens))
            echoed.append(self._distribution_for(vector, token, " " + token if tokens else token))
            tokens.append(token)
        rng = random.Random(params.seed)
        out: list[TokenDistribution] = []
        pieces: list[str] = []
        finish = FinishReason.LENGTH
        for _ in range(params.max_tokens):
            vector = self.table.next_distribution(self._window(tokens))
            choice = self._choose(vector, params.temperature, rng)
            if choice == self.table.end_marker or choice in params.stop_sequences:
                finish = FinishReason.STOP
                break
            piece = choice if not pieces else " " + choice
            out.append(self._distribution_for(vector, choice, piece))
            pieces.append(piece)
            tokens.append(choice)
        return GenerationResult(text="".join(pieces), tokens=tuple(out),
                                finish_reason=finish, echoed=tuple(echoed))
