"""Evaluation harness: answer matching, clarification detection, the
five-outcome taxonomy, the outcome table and its scores (F1, regression
rate), the prediction-file format, and the four inference-only baselines.

Outcome categories:

1. ambiguous query, clarification request (correct)
2. ambiguous query, anything else (incorrect)
3. unambiguous query, matching answer (correct)
4. unambiguous query, non-matching answer (incorrect)
5. unambiguous query, clarification request (incorrect)

One F-measure, ``_f1``, computes ROUGE-L, F1_u and F1_a. Answer matching
is ROUGE-L, the longest-common-subsequence F-measure over normalized word
tokens, with a strict ``> threshold`` correctness rule (default 0.3).
Clarification detection is a case-insensitive substring scan over the
canonical marker list.

``run_each`` maps one body per sample with ``bounded_map``, in input order,
for the four baselines and for stage 2 of ``pipeline``; stage 1 is the
direct baseline's outcome table (``run_prompted``, then ``evaluate``). A
sample any of whose requests raises BackendError comes back ``Errored`` and
the run goes on; when every sample errored, the run raises BackendError. A
baseline's errored record (empty prediction, the error's message) is left
out of F1.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .backend import Backend, GenerationParams, TokenDistribution, bounded_map
from .config import DEFAULT_ROUGE_THRESHOLD, SampleRepConfig
from .corpus import PromptTemplate, QASample, first_word, reply, trim_continuation
from .errors import BackendError, DataIntegrityError, ParseError
from .jsonio import (
    read_jsonl,
    record_at,
    record_from,
    record_obj,
    typed_field,
    write_jsonl_atomic,
)
from .phrases import AMBIGUITY_MARKERS, FIXED_CLARIFICATIONS
from .seeding import rng_for

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def _normalize_tokens(text: str) -> list[str]:
    return text.lower().translate(_PUNCT_TABLE).split()


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Two-row dynamic program; O(len(a) * len(b)) time, O(len(b)) space.
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


def rouge_l(prediction: str, references: Sequence[str]) -> float:
    """Best LCS F-measure of the prediction against any reference, in [0, 1].

    Tokens are lowercased, punctuation-stripped, whitespace-split words.
    A side that normalizes to no tokens scores 0 against that reference.
    """
    if not references:
        raise ValueError("references must be non-empty")
    pred_tokens = _normalize_tokens(prediction)
    return max(_f1(_lcs_length(pred_tokens, ref_tokens), len(pred_tokens), len(ref_tokens))
               for ref_tokens in map(_normalize_tokens, references))


def is_clarification(text: str) -> bool:
    """True iff the text contains any canonical ambiguity marker."""
    lowered = text.lower()
    return any(marker in lowered for marker in AMBIGUITY_MARKERS)


def categorize(sample: QASample, prediction: str, rouge: float | None,
               threshold: float = DEFAULT_ROUGE_THRESHOLD) -> int:
    """Assign one of the five outcome categories, given the prediction's
    ROUGE-L against the sample's answers (None when it has none).

    The clarification check always precedes answer matching.
    """
    if sample.gold_ambiguous is None:
        raise DataIntegrityError(
            f"sample {sample.id}: gold ambiguity label required for evaluation"
        )
    clarifies = is_clarification(prediction)
    if sample.gold_ambiguous:
        return 1 if clarifies else 2
    if clarifies:
        return 5
    if rouge > threshold:
        return 3
    return 4


@dataclass(frozen=True)
class OutcomeCounts:
    """Per-category sample counts for one evaluation run."""

    c1: int = 0
    c2: int = 0
    c3: int = 0
    c4: int = 0
    c5: int = 0
    errored: int = 0

    def __post_init__(self) -> None:
        if min(self.c1, self.c2, self.c3, self.c4, self.c5, self.errored) < 0:
            raise DataIntegrityError("outcome counts must be non-negative")

    @classmethod
    def of(cls, rows: Iterable[PerSampleOutcome]) -> OutcomeCounts:
        """The rows tallied by category; a row with none counts as errored."""
        tallies = Counter(row.category for row in rows)
        return cls(*(tallies[c] for c in range(1, 6)), errored=tallies[None])


def _f1(hits: int, predicted: int, actual: int) -> float:
    """The F-measure of ``hits`` among ``predicted`` items and ``actual`` ones:
    the harmonic mean of precision hits/predicted and recall hits/actual.

    Degenerate ratios (zero denominators) evaluate to 0, matching the
    convention that a run with no correct answers scores 0.00.
    """
    precision = hits / predicted if predicted else 0.0
    recall = hits / actual if actual else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def f1_unambig(counts: OutcomeCounts) -> float:
    """Unambiguous-prediction F1: precision c3/(c2+c3+c4), recall c3/(c3+c4+c5)."""
    return _f1(counts.c3, counts.c2 + counts.c3 + counts.c4, counts.c3 + counts.c4 + counts.c5)


def f1_ambig(counts: OutcomeCounts) -> float:
    """Ambiguity-detection F1: precision c1/(c1+c5), recall c1/(c1+c2)."""
    return _f1(counts.c1, counts.c1 + counts.c5, counts.c1 + counts.c2)


@dataclass(frozen=True)
class Regression:
    """The regression rate of one run against another, and the two counts it
    is the ratio of."""

    mcr: float | None
    before_correct: int
    shifted: int


def mcr(before: Mapping[str, int], after: Mapping[str, int]) -> Regression:
    """Fraction of before-correct unambiguous samples (category 3) that
    regressed to wrong clarification requests (category 5).

    The rate is None when no sample was in category 3 before.
    """
    if set(before) != set(after):
        missing = set(before).symmetric_difference(after)
        raise DataIntegrityError(
            f"before/after runs cover different sample ids: {sorted(missing)[:5]}"
        )
    base = [sid for sid, cat in before.items() if cat == 3]
    shifted = sum(1 for sid in base if after[sid] == 5)
    return Regression(shifted / len(base) if base else None, len(base), shifted)


def clarification_phrase(master_seed: int, purpose: str, sample_id: str) -> str:
    """Seeded uniform choice among the six canonical clarification phrases."""
    return rng_for(master_seed, purpose, sample_id).choice(FIXED_CLARIFICATIONS)


# -- prediction files ----------------------------------------------------------


@dataclass(frozen=True)
class PredictionRecord:
    """One sample's final prediction from a baseline run; ``error`` is never empty."""

    sample_id: str = field(metadata={"column": "id"})
    prediction: str
    error: str | None = field(default=None, metadata={"optional": True})
    flags: tuple[str, ...] = field(default=(), metadata={"optional": True})
    extras: dict = field(default_factory=dict, metadata={"rest": True})

    def __post_init__(self) -> None:
        if self.error == "":
            raise DataIntegrityError("field 'error' must not be empty (null: not errored)")


def write_predictions(predictions: Sequence[PredictionRecord], path: str | Path) -> None:
    """One JSON line per record: id, prediction, the error and the flags if
    any, then the extras."""
    write_jsonl_atomic(path, map(record_obj, predictions))


def read_predictions(path: str | Path) -> list[PredictionRecord]:
    """Read a predictions file. A line with a non-null ``error`` is an
    errored sample; ``flags`` is optional; other fields become extras."""
    predictions = []
    for line_number, obj in read_jsonl(path, unique_ids=True):
        with record_at(path, line_number):
            predictions.append(record_from(PredictionRecord, obj))
    return predictions


# -- baseline runners --------------------------------------------------------


@dataclass(frozen=True)
class Errored:
    """A sample whose backend calls failed, with the error's message (its
    class name when the message is empty); the message is never empty."""

    sample_id: str = field(metadata={"column": "id"})
    error: str

    def __post_init__(self) -> None:
        if not self.error:
            raise DataIntegrityError("field 'error' must not be empty")


def run_each(samples: Sequence[QASample], backend: Backend, fn: Callable) -> list:
    """``fn`` of each sample, or its ``Errored``, under the failure rule in the
    module docstring. Any other exception propagates."""

    def one(sample: QASample):
        try:
            return fn(sample)
        except BackendError as exc:
            return Errored(sample.id, str(exc) or type(exc).__name__)

    outcomes = bounded_map(one, list(samples), backend.parallelism)
    if outcomes and all(isinstance(o, Errored) for o in outcomes):
        raise BackendError(f"every backend call failed ({len(outcomes)} samples); "
                           f"first error: {outcomes[0].error}")
    return outcomes


def _run_each(samples: Sequence[QASample], backend: Backend, predict: Callable) -> list:
    """``run_each`` with an errored sample's record in its place."""
    return [PredictionRecord(o.sample_id, "", error=o.error) if isinstance(o, Errored) else o
            for o in run_each(samples, backend, predict)]


def _clarify_or_answer(
    answer: str, ambiguous: bool, master_seed: int, purpose: str, sample_id: str
) -> str:
    """A sample judged ambiguous gets its seeded clarification phrase under
    ``purpose``; any other keeps its answer."""
    return clarification_phrase(master_seed, purpose, sample_id) if ambiguous else answer


def run_prompted(
    template: str,
    samples: Sequence[QASample],
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
) -> list[tuple[PredictionRecord, tuple[TokenDistribution, ...]]]:
    """Each sample's reply to the named template filled with its question:
    its record, beside the reply's generated tokens (none when it errored)."""

    def one(sample: QASample) -> tuple[PredictionRecord, tuple[TokenDistribution, ...]]:
        result = backend.generate(templates[template].render(question=sample.question), params)
        return PredictionRecord(sample.id, trim_continuation(result.text)), result.tokens

    return [(o, ()) if isinstance(o, PredictionRecord) else o
            for o in _run_each(samples, backend, one)]


def _prompted_records(template: str, *run) -> list[PredictionRecord]:
    return [record for record, _ in run_prompted(template, *run)]


# direct: plain QA prompting; never requests clarification by construction.
run_direct = partial(_prompted_records, "direct")
# ambig_aware: QA prompting with an explicit escape instruction for ambiguous input.
run_ambig_aware = partial(_prompted_records, "ambiguity_aware")


def judge_sample_rep(
    record: PredictionRecord, threshold: float, master_seed: int
) -> PredictionRecord:
    """Apply the sample-rep threshold to a record whose extras carry
    ``consistency`` and ``greedy``.

    A sample is judged ambiguous when consistency (in [0, 1]) falls strictly
    below ``threshold``; its prediction is then a fixed clarification phrase,
    otherwise the greedy answer. Errored records pass through unchanged.
    """
    if record.error is not None:
        return record
    with record_at(f"sample-rep record {record.sample_id!r}"):
        consistency = typed_field(record.extras, "consistency", float)
        if not 0 <= consistency <= 1:
            raise ValueError(f"field 'consistency' must lie in [0, 1], got {consistency}")
        greedy = typed_field(record.extras, "greedy", str)
    ambiguous = consistency < threshold
    prediction = _clarify_or_answer(greedy, ambiguous, master_seed, "sample_rep_phrase",
                                    record.sample_id)
    return replace(record, prediction=prediction,
                   extras={**record.extras, "ambiguous": ambiguous})


def run_sample_rep(
    samples: Sequence[QASample],
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
    settings: SampleRepConfig,
    *,
    master_seed: int,
) -> list[PredictionRecord]:
    """Consistency of sampled generations against the greedy one.

    ``consistency`` is the fraction of the ``settings.num_samples`` draws at
    ``settings.temperature`` that equal the greedy generation after trimming
    and lowercasing; ``judge_sample_rep`` turns it into the prediction at
    ``settings.threshold``. The raw consistency and greedy answer ride along
    in ``extras`` so thresholds can be swept without re-generating.
    """
    template = templates["direct"]
    greedy_params = replace(params, temperature=0.0, seed=None)

    def one(sample: QASample) -> PredictionRecord:
        greedy = reply(backend, template, greedy_params, question=sample.question)
        matches = 0
        for draw in range(settings.num_samples):
            seed = rng_for(master_seed, "sample_rep_draw", sample.id, draw).randrange(2**31)
            sampled_params = replace(params, temperature=settings.temperature, seed=seed)
            sampled = reply(backend, template, sampled_params, question=sample.question)
            if sampled.lower() == greedy.lower():
                matches += 1
        record = PredictionRecord(
            sample.id, greedy,
            extras={"consistency": matches / settings.num_samples, "greedy": greedy},
        )
        return judge_sample_rep(record, settings.threshold, master_seed)

    return _run_each(samples, backend, one)


def run_self_ask(
    samples: Sequence[QASample],
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
    *,
    master_seed: int,
) -> list[PredictionRecord]:
    """Two-pass baseline: answer first, then ask the model whether the
    question was ambiguous.

    The verdict is the verifier's first word, case-insensitively, among
    {ambiguous, unambiguous}; anything else counts as unambiguous and the
    record is flagged ``unparseable_verdict``.
    """

    def one(sample: QASample) -> PredictionRecord:
        answer = reply(backend, templates["direct"], params, question=sample.question)
        verdict = first_word(reply(backend, templates["self_ask"], params,
                                   question=sample.question, answer=answer))
        prediction = _clarify_or_answer(answer, verdict == "ambiguous", master_seed,
                                        "self_ask_phrase", sample.id)
        flags = () if verdict in ("ambiguous", "unambiguous") else ("unparseable_verdict",)
        return PredictionRecord(sample.id, prediction, flags=flags,
                                extras={"answer": answer, "verdict": verdict})

    return _run_each(samples, backend, one)


# -- the outcome table -------------------------------------------------------


@dataclass(frozen=True)
class PerSampleOutcome:
    """An outcome-table row; an errored sample has no category or ROUGE-L."""

    sample_id: str = field(metadata={"column": "id"})
    category: int | None
    rouge: float | None
    prediction: str
    error: str | None = field(default=None, metadata={"optional": True})


def evaluate(
    samples: Sequence[QASample],
    predictions: Sequence[PredictionRecord],
    threshold: float = DEFAULT_ROUGE_THRESHOLD,
    source: str | Path | None = None,
) -> list[PerSampleOutcome]:
    """Score a prediction set against gold labels: the outcome table, one row
    per sample in dataset order. A set whose ids are not the samples' is
    refused naming ``source``, its file."""
    by_id = {p.sample_id: p for p in predictions}
    missing = [s.id for s in samples if s.id not in by_id]
    if missing:
        raise ParseError(f"predictions missing for sample(s): {missing[:5]}", where=source)
    known = {s.id for s in samples}
    unknown = [sample_id for sample_id in by_id if sample_id not in known]
    if unknown:
        raise ParseError(f"predictions for sample(s) not in the dataset: {unknown[:5]}",
                         where=source)
    rows = []
    for sample in samples:
        record = by_id[sample.id]
        if record.error is not None:
            rows.append(PerSampleOutcome(sample.id, None, None, record.prediction, record.error))
            continue
        rouge = rouge_l(record.prediction, sample.answers) if sample.answers else None
        category = categorize(sample, record.prediction, rouge, threshold)
        rows.append(PerSampleOutcome(sample.id, category, rouge, record.prediction))
    return rows


def report_obj(rows: Sequence[PerSampleOutcome], config_echo: Mapping[str, object]) -> dict:
    """The report ``eval`` writes: the counts, both F1 scores, each row, and
    the config echo."""
    counts = OutcomeCounts.of(rows)
    return {
        "counts": record_obj(counts),
        "f1_u": f1_unambig(counts),
        "f1_a": f1_ambig(counts),
        "per_sample": [record_obj(row) for row in rows],
        "config": dict(config_echo),
    }
