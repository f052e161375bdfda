"""Stage orchestration: assessment, perceived-ambiguity detection,
clarification labeling, and the selection/balancing that feeds training-set
export.

Stage 1 partitions a dataset by whether the model already handles each
sample (categories 1 and 3 are correct; 2, 4 and 5 are incorrect; backend
failures are excluded as errored). Stage 2 lets the model rewrite each
incorrect query more specifically and measures the average-entropy drop;
rewrites whose gain strictly exceeds epsilon mark the query as perceived
ambiguous. Stage 3 attaches a clarification-request label, either one of the
six canonical phrases or a model-generated request naming the ambiguity.
Selection then balances the correct and ambiguous halves to equal size.

All randomness is derived per (master seed, purpose, sample id), so runs are
byte-reproducible and insensitive to dataset growth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .backend import Backend, GenerationParams, ScoringResult, bounded_map
from .corpus import PromptTemplate, QASample, reply, trim_continuation
from .entropy import TruncationMode, Verdict, classify, entropy_profile, info_gain
from .errors import BackendError, ConfigurationError, DataIntegrityError
from .evalkit import DEFAULT_ROUGE_THRESHOLD, categorize, clarification_phrase, is_clarification
from .jsonio import (
    read_json_object,
    read_jsonl,
    record_at,
    typed_field,
    write_json_atomic,
    write_jsonl_atomic,
)
from .phrases import FIXED_CLARIFICATIONS
from .seeding import derive_seed

EMPTY_DISAMBIGUATION_FLAG = "empty_disambiguation"
FALLBACK_FIXED_FLAG = "fallback_fixed"


class LabelKind(enum.Enum):
    FIXED = "fixed"
    GENERATED = "generated"


class SelectionStrategy(enum.Enum):
    """How the ambiguous half of the training set is chosen."""

    APA_INFOGAIN = "apa_infogain"
    GT_RANDOM = "gt_random"
    GT_MAX_INFOGAIN = "gt_max_infogain"
    GT_MIN_INFOGAIN = "gt_min_infogain"
    ANSWER_ENTROPY = "answer_entropy"


@dataclass(frozen=True)
class AssessedSample:
    """Stage-1 outcome for one sample."""

    sample: QASample
    prediction: str
    category: int
    answer_entropy: float | None = None


@dataclass(frozen=True)
class StageOnePartition:
    """Correct/incorrect split of a dataset, with errored samples set aside."""

    correct: tuple[AssessedSample, ...]
    incorrect: tuple[AssessedSample, ...]
    errored: tuple[tuple[str, str], ...] = ()

    @classmethod
    def split(
        cls, assessed: Sequence[AssessedSample], errored: Sequence[tuple[str, str]]
    ) -> StageOnePartition:
        """Categories 1 and 3 are correct, every other category incorrect."""
        return cls(
            correct=tuple(a for a in assessed if a.category in (1, 3)),
            incorrect=tuple(a for a in assessed if a.category not in (1, 3)),
            errored=tuple(errored),
        )

    def assessed_by_id(self) -> dict[str, AssessedSample]:
        return {a.sample.id: a for a in self.correct + self.incorrect}


@dataclass(frozen=True)
class DisambiguationRecord:
    """Stage-2 outcome: the rewrite, both entropies, and the verdict."""

    sample_id: str
    query_text: str
    disambig_text: str
    h_query: float
    h_disambig: float
    info_gain: float
    verdict: Verdict
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if abs(self.info_gain - (self.h_query - self.h_disambig)) > 1e-12:
            raise DataIntegrityError(
                f"record {self.sample_id}: info_gain {self.info_gain!r} != "
                f"h_query - h_disambig"
            )


@dataclass(frozen=True)
class ClarifyLabel:
    """Stage-3 training label for one ambiguous sample."""

    sample_id: str
    text: str
    kind: LabelKind
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.text:
            raise DataIntegrityError(f"label for {self.sample_id}: empty text")
        if self.kind is LabelKind.FIXED and self.text not in FIXED_CLARIFICATIONS:
            raise DataIntegrityError(
                f"label for {self.sample_id}: fixed label is not canonical"
            )


@dataclass(frozen=True)
class Selection:
    """Balanced halves feeding the training-set export."""

    correct: tuple[AssessedSample, ...]
    ambiguous: tuple[DisambiguationRecord, ...]
    strategy: SelectionStrategy
    epsilon: float


# -- stage 1 -----------------------------------------------------------------


def stage1_assess(
    samples: Sequence[QASample],
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
    *,
    mode: TruncationMode,
    rouge_threshold: float = DEFAULT_ROUGE_THRESHOLD,
) -> StageOnePartition:
    """Greedy-answer every sample and split by the five-outcome rule.

    The average token entropy of each generated answer is kept alongside, so
    the answer-entropy selection strategy needs no second pass.
    """
    template = templates["direct"]

    def one(sample: QASample):
        try:
            result = backend.generate(template.render(question=sample.question), params)
        except BackendError as exc:
            return (sample.id, str(exc))
        prediction = trim_continuation(result.text)
        category = categorize(sample, prediction, rouge_threshold)
        return AssessedSample(
            sample=sample,
            prediction=prediction,
            category=category,
            answer_entropy=(
                entropy_profile(ScoringResult(result.tokens), mode).average_entropy
                if result.tokens
                else None
            ),
        )

    outcomes = bounded_map(one, samples, backend.parallelism)
    return StageOnePartition.split(
        [o for o in outcomes if isinstance(o, AssessedSample)],
        [o for o in outcomes if not isinstance(o, AssessedSample)],
    )


# -- stage 2 -----------------------------------------------------------------


def stage2_disambiguate(
    samples: Sequence[QASample],
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
    *,
    mode: TruncationMode,
    epsilon: float,
) -> tuple[list[DisambiguationRecord], list[tuple[str, str]]]:
    """Self-disambiguate each query and measure the information gain.

    Both the query and its rewrite are scored as bare sentences against an
    empty prefix, so the two entropies are computed under identical
    conditioning. An empty rewrite yields a record with zero gain, an
    unambiguous verdict, and the ``empty_disambiguation`` flag. Backend
    failures are returned separately as (sample_id, error) pairs.
    """
    template = templates["disambiguation"]

    def one(sample: QASample):
        try:
            disambig = reply(backend, template, params, question=sample.question)
            profile_q = entropy_profile(backend.score(sample.question, ""), mode)
            profile_d = (entropy_profile(backend.score(disambig, ""), mode)
                         if disambig else profile_q)
        except BackendError as exc:
            return (sample.id, str(exc))
        gain = info_gain(profile_q, profile_d)
        return DisambiguationRecord(
            sample_id=sample.id,
            query_text=sample.question,
            disambig_text=disambig,
            h_query=profile_q.average_entropy,
            h_disambig=profile_d.average_entropy,
            info_gain=gain,
            verdict=classify(gain, epsilon) if disambig else Verdict.PERCEIVED_UNAMBIGUOUS,
            flags=() if disambig else (EMPTY_DISAMBIGUATION_FLAG,),
        )

    outcomes = bounded_map(one, samples, backend.parallelism)
    records = [o for o in outcomes if isinstance(o, DisambiguationRecord)]
    errored = [o for o in outcomes if not isinstance(o, DisambiguationRecord)]
    return records, errored


# -- stage 3 -----------------------------------------------------------------


def stage3_fixed_label(sample_id: str, master_seed: int) -> ClarifyLabel:
    """Uniform seeded choice among the six canonical phrases."""
    phrase = clarification_phrase(master_seed, "stage3_fixed", sample_id)
    return ClarifyLabel(sample_id=sample_id, text=phrase, kind=LabelKind.FIXED)


def stage3_generated_label(
    record: DisambiguationRecord,
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
    *,
    master_seed: int,
) -> ClarifyLabel:
    """Model-generated clarification request naming the ambiguity's source.

    A record without a rewrite, and an output that does not read as a
    clarification request, fall back to a flagged fixed phrase; the first
    makes no backend call and is also flagged ``empty_disambiguation``.
    """
    if record.disambig_text:
        text = reply(backend, templates["clarification"], params,
                     question=record.query_text, disambiguation=record.disambig_text)
        if text and is_clarification(text):
            return ClarifyLabel(sample_id=record.sample_id, text=text, kind=LabelKind.GENERATED)
        flags = (FALLBACK_FIXED_FLAG,)
    else:
        flags = (FALLBACK_FIXED_FLAG, EMPTY_DISAMBIGUATION_FLAG)
    return replace(stage3_fixed_label(record.sample_id, master_seed), flags=flags)


def label_records(
    records: Sequence[DisambiguationRecord],
    kind: LabelKind,
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
    *,
    master_seed: int,
) -> list[ClarifyLabel]:
    """Label every record, generated labels up to ``backend.parallelism`` at
    a time."""
    if kind is LabelKind.FIXED:
        return [stage3_fixed_label(r.sample_id, master_seed) for r in records]
    return bounded_map(
        lambda record: stage3_generated_label(
            record, backend, templates, params, master_seed=master_seed
        ),
        records, backend.parallelism,
    )


# -- selection and balancing -------------------------------------------------


def _perceived_ambiguous(
    records: Sequence[DisambiguationRecord], epsilon: float
) -> list[DisambiguationRecord]:
    return [
        r
        for r in records
        if EMPTY_DISAMBIGUATION_FLAG not in r.flags
        and classify(r.info_gain, epsilon) is Verdict.PERCEIVED_AMBIGUOUS
    ]


def select_and_balance(
    partition: StageOnePartition,
    records: Sequence[DisambiguationRecord],
    strategy: SelectionStrategy,
    epsilon: float,
    master_seed: int,
) -> Selection:
    """Pick the ambiguous half per the strategy and balance both halves.

    The pool is the perceived-ambiguous records for ``apa_infogain``, which
    ignores gold labels entirely, and the gold-ambiguous records for every
    other strategy. The pool is sorted by the strategy's key and cut to the
    perceived-ambiguous count, so every strategy trains on the same budget;
    ``gt_random``'s key is a seeded draw per sample id. Both halves are then
    cut to the smaller one's size: the ambiguous half keeps its first
    records, the correct half a seeded subset (keyed by sample id) in its
    own order.
    """
    perceived = _perceived_ambiguous(records, epsilon)
    assessed = partition.assessed_by_id()
    if strategy is SelectionStrategy.APA_INFOGAIN:
        pool = perceived
    else:
        pool = []
        for record in records:
            entry = assessed.get(record.sample_id)
            gold = entry.sample.gold_ambiguous if entry is not None else None
            if gold is None:
                raise ConfigurationError(
                    f"strategy {strategy.value} requires gold ambiguity labels; "
                    f"sample {record.sample_id!r} has none"
                )
            if gold:
                pool.append(record)
    if strategy is SelectionStrategy.ANSWER_ENTROPY:
        missing = [r.sample_id for r in pool if assessed[r.sample_id].answer_entropy is None]
        if missing:
            raise ConfigurationError(f"answer entropy missing for sample(s): {missing[:5]}")
    rank_key = {
        SelectionStrategy.APA_INFOGAIN: lambda r: -r.info_gain,
        SelectionStrategy.GT_MAX_INFOGAIN: lambda r: -r.info_gain,
        SelectionStrategy.GT_MIN_INFOGAIN: lambda r: r.info_gain,
        SelectionStrategy.GT_RANDOM: lambda r: derive_seed(master_seed, "gt_random", r.sample_id),
        SelectionStrategy.ANSWER_ENTROPY: lambda r: -assessed[r.sample_id].answer_entropy,
    }[strategy]
    ranked = sorted(pool, key=rank_key)[:len(perceived)]
    if not ranked:
        raise ConfigurationError(
            "no ambiguous samples were selected; lower epsilon "
            f"(currently {epsilon}) or check the detection records"
        )

    size = min(len(partition.correct), len(ranked))
    correct = partition.correct
    if len(correct) > size:  # a smaller correct half is kept whole, undrawn
        keep = set(sorted(
            (a.sample.id for a in correct),
            key=lambda sample_id: derive_seed(master_seed, "balance_correct", sample_id),
        )[:size])
        correct = tuple(a for a in correct if a.sample.id in keep)
    return Selection(
        correct=correct,
        ambiguous=tuple(ranked[:size]),
        strategy=strategy,
        epsilon=epsilon,
    )


def sweep_epsilon(
    records: Sequence[DisambiguationRecord], epsilons: Sequence[float]
) -> list[tuple[float, int]]:
    """Ambiguous-pool size at each threshold, in the given order."""
    if not epsilons:
        raise ValueError("epsilons must be non-empty")
    return [(eps, len(_perceived_ambiguous(records, eps))) for eps in epsilons]


# -- checkpoint serialization --------------------------------------------------


def write_partition(partition: StageOnePartition, path: str | Path) -> None:
    def lines():
        for a in partition.correct + partition.incorrect:
            yield {
                "id": a.sample.id,
                "category": a.category,
                "prediction": a.prediction,
                "answer_entropy": a.answer_entropy,
            }
        for sample_id, error in partition.errored:
            yield {"id": sample_id, "error": error}

    write_jsonl_atomic(path, lines())


def read_partition(
    path: str | Path, samples_by_id: Mapping[str, QASample]
) -> StageOnePartition:
    assessed_samples: list[AssessedSample] = []
    errored: list[tuple[str, str]] = []
    for line_number, obj in read_jsonl(path):
        with record_at(path, line_number):
            sample_id = typed_field(obj, "id", str)
            if "error" in obj:
                errored.append((sample_id, typed_field(obj, "error", str)))
                continue
            sample = samples_by_id.get(sample_id)
            if sample is None:
                raise DataIntegrityError(
                    f"{path} line {line_number}: sample {sample_id!r} not in the dataset"
                )
            category = typed_field(obj, "category", int)
            if not 1 <= category <= 5:
                raise ValueError(f"field 'category' must be 1-5, got {category}")
            assessed_samples.append(AssessedSample(
                sample=sample,
                prediction=typed_field(obj, "prediction", str),
                category=category,
                answer_entropy=typed_field(obj, "answer_entropy", float, None),
            ))
    return StageOnePartition.split(assessed_samples, errored)


def write_records(records: Sequence[DisambiguationRecord], path: str | Path) -> None:
    write_jsonl_atomic(
        path,
        (
            {
                "id": r.sample_id,
                "query": r.query_text,
                "disambig": r.disambig_text,
                "h_query": r.h_query,
                "h_disambig": r.h_disambig,
                "info_gain": r.info_gain,
                "verdict": r.verdict.value,
                "flags": list(r.flags),
            }
            for r in records
        ),
    )


def read_records(path: str | Path) -> list[DisambiguationRecord]:
    records = []
    for line_number, obj in read_jsonl(path):
        with record_at(path, line_number):
            records.append(DisambiguationRecord(
                sample_id=typed_field(obj, "id", str),
                query_text=typed_field(obj, "query", str),
                disambig_text=typed_field(obj, "disambig", str),
                h_query=typed_field(obj, "h_query", float),
                h_disambig=typed_field(obj, "h_disambig", float),
                info_gain=typed_field(obj, "info_gain", float),
                verdict=Verdict(obj["verdict"]),
                flags=typed_field(obj, "flags", tuple, ()),
            ))
    return records


def write_labels(labels: Sequence[ClarifyLabel], path: str | Path) -> None:
    write_jsonl_atomic(
        path,
        (
            {"id": lab.sample_id, "text": lab.text, "kind": lab.kind.value,
             "flags": list(lab.flags)}
            for lab in labels
        ),
    )


def read_labels(path: str | Path) -> list[ClarifyLabel]:
    labels = []
    for line_number, obj in read_jsonl(path):
        with record_at(path, line_number):
            labels.append(ClarifyLabel(
                sample_id=typed_field(obj, "id", str),
                text=typed_field(obj, "text", str),
                kind=LabelKind(obj["kind"]),
                flags=typed_field(obj, "flags", tuple, ()),
            ))
    return labels


def write_selection(selection: Selection, path: str | Path) -> None:
    write_json_atomic(path, {
        "strategy": selection.strategy.value,
        "epsilon": selection.epsilon,
        "correct_ids": [a.sample.id for a in selection.correct],
        "ambiguous_ids": [r.sample_id for r in selection.ambiguous],
    })


def read_selection(
    path: str | Path,
    partition: StageOnePartition,
    records: Sequence[DisambiguationRecord],
) -> tuple[list[AssessedSample], list[DisambiguationRecord]]:
    """The correct and ambiguous halves of the selection written to ``path``,
    its ids resolved against the stage-1 partition and the stage-2 records.
    The strategy and epsilon it also records are provenance, not read."""
    obj = read_json_object(path)
    with record_at(path):
        correct_ids = typed_field(obj, "correct_ids", tuple)
        ambiguous_ids = typed_field(obj, "ambiguous_ids", tuple)
    assessed = partition.assessed_by_id()
    records_by_id = {r.sample_id: r for r in records}
    try:
        return ([assessed[i] for i in correct_ids],
                [records_by_id[i] for i in ambiguous_ids])
    except KeyError as exc:
        raise DataIntegrityError(f"{path}: selection references unknown sample {exc}") from exc
