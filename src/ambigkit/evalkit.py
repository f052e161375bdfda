"""Evaluation harness: answer matching, clarification detection, the
five-outcome taxonomy, F1 metrics, regression rate, the prediction-file
format, and the four inference-only baselines.

Outcome categories:

1. ambiguous query, clarification request (correct)
2. ambiguous query, anything else (incorrect)
3. unambiguous query, matching answer (correct)
4. unambiguous query, non-matching answer (incorrect)
5. unambiguous query, clarification request (incorrect)

Answer matching uses the longest-common-subsequence F-measure over
normalized word tokens, with a strict ``> threshold`` correctness rule
(default 0.3). Clarification detection is a case-insensitive substring scan
over the canonical marker list.
"""

from __future__ import annotations

import string
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from .backend import Backend, GenerationParams, bounded_map
from .corpus import PromptTemplate, QASample, first_word, reply
from .errors import BackendError, DataIntegrityError
from .jsonio import read_jsonl, record_at, typed_field, write_jsonl_atomic
from .phrases import AMBIGUITY_MARKERS, FIXED_CLARIFICATIONS
from .seeding import rng_for

DEFAULT_ROUGE_THRESHOLD = 0.3

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def _normalize_tokens(text: str) -> list[str]:
    return text.lower().translate(_PUNCT_TABLE).split()


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Two-row dynamic program; O(len(a) * len(b)) time, O(len(b)) space.
    if not a or not b:
        return 0
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
    best = 0.0
    for reference in references:
        ref_tokens = _normalize_tokens(reference)
        if not pred_tokens or not ref_tokens:
            continue
        lcs = _lcs_length(pred_tokens, ref_tokens)
        if lcs == 0:
            continue
        precision = lcs / len(pred_tokens)
        recall = lcs / len(ref_tokens)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def is_clarification(text: str) -> bool:
    """True iff the text contains any canonical ambiguity marker."""
    lowered = text.lower()
    return any(marker in lowered for marker in AMBIGUITY_MARKERS)


def categorize(
    sample: QASample, prediction: str, threshold: float = DEFAULT_ROUGE_THRESHOLD
) -> int:
    """Assign one of the five outcome categories.

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
    if rouge_l(prediction, sample.answers) > threshold:
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


def _harmonic(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def f1_unambig(counts: OutcomeCounts) -> float:
    """Unambiguous-prediction F1: precision c3/(c2+c3+c4), recall c3/(c3+c4+c5).

    Degenerate ratios (zero denominators) evaluate to 0, matching the
    convention that a run with no correct answers scores 0.00.
    """
    p_denom = counts.c2 + counts.c3 + counts.c4
    r_denom = counts.c3 + counts.c4 + counts.c5
    precision = counts.c3 / p_denom if p_denom else 0.0
    recall = counts.c3 / r_denom if r_denom else 0.0
    return _harmonic(precision, recall)


def f1_ambig(counts: OutcomeCounts) -> float:
    """Ambiguity-detection F1: precision c1/(c1+c5), recall c1/(c1+c2)."""
    p_denom = counts.c1 + counts.c5
    r_denom = counts.c1 + counts.c2
    precision = counts.c1 / p_denom if p_denom else 0.0
    recall = counts.c1 / r_denom if r_denom else 0.0
    return _harmonic(precision, recall)


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
    """One sample's final prediction from a baseline run."""

    sample_id: str
    prediction: str
    error: str | None = None
    flags: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)


def write_predictions(predictions: Sequence[PredictionRecord], path: str | Path) -> None:
    """One JSON line per record: id, prediction, the error and the flags if
    any, then the extras."""
    write_jsonl_atomic(path, (
        {"id": p.sample_id, "prediction": p.prediction,
         **({"error": p.error} if p.error else {}),
         **({"flags": p.flags} if p.flags else {}), **p.extras}
        for p in predictions
    ))


def read_predictions(path: str | Path) -> list[PredictionRecord]:
    """Read a predictions file. A line with a non-null ``error`` is an
    errored sample; ``flags`` is optional; other fields become extras."""
    predictions = []
    for line_number, obj in read_jsonl(path):
        with record_at(path, line_number):
            predictions.append(PredictionRecord(
                typed_field(obj, "id", str), typed_field(obj, "prediction", str),
                error=typed_field(obj, "error", str, None),
                flags=typed_field(obj, "flags", tuple, ()),
                extras={key: value for key, value in obj.items()
                        if key not in ("id", "prediction", "error", "flags")},
            ))
    return predictions


# -- baseline runners --------------------------------------------------------


def _run_prompted(
    samples: Sequence[QASample],
    backend: Backend,
    template: PromptTemplate,
    params: GenerationParams,
) -> list[PredictionRecord]:
    def one(sample: QASample) -> PredictionRecord:
        try:
            prediction = reply(backend, template, params, question=sample.question)
        except BackendError as exc:
            return PredictionRecord(sample.id, "", error=str(exc))
        return PredictionRecord(sample.id, prediction)

    return bounded_map(one, list(samples), backend.parallelism)


def run_direct(
    samples: Sequence[QASample],
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
) -> list[PredictionRecord]:
    """Plain QA prompting; never requests clarification by construction."""
    return _run_prompted(samples, backend, templates["direct"], params)


def run_ambig_aware(
    samples: Sequence[QASample],
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
) -> list[PredictionRecord]:
    """QA prompting with an explicit escape instruction for ambiguous input."""
    return _run_prompted(samples, backend, templates["ambiguity_aware"], params)


def judge_sample_rep(
    record: PredictionRecord, threshold: float, master_seed: int
) -> PredictionRecord:
    """Apply the sample-rep threshold to a record whose extras carry
    ``consistency`` and ``greedy``.

    A sample is judged ambiguous when consistency falls strictly below
    ``threshold``; its prediction is then a fixed clarification phrase,
    otherwise the greedy answer. Errored records pass through unchanged.
    """
    if record.error is not None:
        return record
    with record_at(f"sample-rep record {record.sample_id!r}"):
        consistency = typed_field(record.extras, "consistency", float)
        greedy = typed_field(record.extras, "greedy", str)
    ambiguous = consistency < threshold
    prediction = (clarification_phrase(master_seed, "sample_rep_phrase", record.sample_id)
                  if ambiguous else greedy)
    return replace(record, prediction=prediction,
                   extras={**record.extras, "ambiguous": ambiguous})


def run_sample_rep(
    samples: Sequence[QASample],
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
    *,
    threshold: float,
    num_samples: int = 10,
    temperature: float = 1.0,
    master_seed: int = 0,
) -> list[PredictionRecord]:
    """Consistency of sampled generations against the greedy one.

    ``consistency`` is the fraction of the sampled generations that equal the
    greedy generation after trimming and lowercasing; ``judge_sample_rep``
    turns it into the prediction. The raw consistency and greedy answer ride
    along in ``extras`` so thresholds can be swept without re-generating.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    template = templates["direct"]
    greedy_params = replace(params, temperature=0.0, seed=None)

    def one(sample: QASample) -> PredictionRecord:
        try:
            greedy = reply(backend, template, greedy_params, question=sample.question)
            matches = 0
            for draw in range(num_samples):
                seed = rng_for(master_seed, "sample_rep_draw", sample.id, draw).randrange(2**31)
                sampled_params = replace(params, temperature=temperature, seed=seed)
                sampled = reply(backend, template, sampled_params, question=sample.question)
                if sampled.lower() == greedy.lower():
                    matches += 1
        except BackendError as exc:
            return PredictionRecord(sample.id, "", error=str(exc))
        record = PredictionRecord(
            sample.id, greedy,
            extras={"consistency": matches / num_samples, "greedy": greedy},
        )
        return judge_sample_rep(record, threshold, master_seed)

    return bounded_map(one, list(samples), backend.parallelism)


def run_self_ask(
    samples: Sequence[QASample],
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
    *,
    master_seed: int = 0,
) -> list[PredictionRecord]:
    """Two-pass baseline: answer first, then ask the model whether the
    question was ambiguous.

    The verdict is the verifier's first word, case-insensitively, among
    {ambiguous, unambiguous}; anything else counts as unambiguous and the
    record is flagged ``unparseable_verdict``.
    """

    def one(sample: QASample) -> PredictionRecord:
        try:
            answer = reply(backend, templates["direct"], params, question=sample.question)
            verdict_text = reply(backend, templates["self_ask"], params,
                                 question=sample.question, answer=answer)
        except BackendError as exc:
            return PredictionRecord(sample.id, "", error=str(exc))
        first = first_word(verdict_text)
        flags: tuple[str, ...] = ()
        if first == "ambiguous":
            prediction = clarification_phrase(master_seed, "self_ask_phrase", sample.id)
        elif first == "unambiguous":
            prediction = answer
        else:
            prediction = answer
            flags = ("unparseable_verdict",)
        return PredictionRecord(
            sample.id, prediction, flags=flags, extras={"answer": answer, "verdict": first}
        )

    return bounded_map(one, list(samples), backend.parallelism)


# -- report assembly ---------------------------------------------------------


@dataclass(frozen=True)
class PerSampleOutcome:
    sample_id: str
    category: int | None
    rouge: float | None
    prediction: str
    error: str | None = None


@dataclass(frozen=True)
class EvalReport:
    counts: OutcomeCounts
    f1_u: float
    f1_a: float
    per_sample: tuple[PerSampleOutcome, ...]

    def to_obj(self, config_echo: Mapping[str, object] | None = None) -> dict:
        return {
            "counts": asdict(self.counts),
            "f1_u": self.f1_u,
            "f1_a": self.f1_a,
            "per_sample": [
                {
                    "id": o.sample_id,
                    "category": o.category,
                    "rouge": o.rouge,
                    "prediction": o.prediction,
                    **({"error": o.error} if o.error else {}),
                }
                for o in self.per_sample
            ],
            "config": dict(config_echo or {}),
        }


def evaluate(
    samples: Sequence[QASample],
    predictions: Sequence[PredictionRecord],
    threshold: float = DEFAULT_ROUGE_THRESHOLD,
) -> EvalReport:
    """Score a prediction set against gold labels and assemble the report."""
    by_id = {p.sample_id: p for p in predictions}
    missing = [s.id for s in samples if s.id not in by_id]
    if missing:
        raise DataIntegrityError(f"predictions missing for sample(s): {missing[:5]}")
    tallies = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}
    errored = 0
    outcomes: list[PerSampleOutcome] = []
    for sample in samples:
        record = by_id[sample.id]
        if record.error is not None:
            errored += 1
            outcomes.append(
                PerSampleOutcome(sample.id, None, None, record.prediction, record.error)
            )
            continue
        category = categorize(sample, record.prediction, threshold)
        tallies[category] += 1
        rouge = rouge_l(record.prediction, sample.answers) if sample.answers else None
        outcomes.append(PerSampleOutcome(sample.id, category, rouge, record.prediction))
    counts = OutcomeCounts(
        c1=tallies[1], c2=tallies[2], c3=tallies[3], c4=tallies[4], c5=tallies[5],
        errored=errored,
    )
    return EvalReport(
        counts=counts,
        f1_u=f1_unambig(counts),
        f1_a=f1_ambig(counts),
        per_sample=tuple(outcomes),
    )

