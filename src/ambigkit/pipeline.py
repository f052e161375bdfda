"""Stage orchestration: assessment, perceived-ambiguity detection,
clarification labeling, and the selection/balancing that feeds training-set
export.

Stage 1 is the direct baseline's outcome table on the dataset
(``evalkit.run_prompted`` answers, ``evalkit.evaluate`` grades), split by
whether the model already handles each sample (categories 1 and 3 are
correct; 2, 4 and 5 are incorrect; errored rows are set aside). Stage 2 lets
the model rewrite each incorrect query more specifically and only measures
the average-entropy drop; ``DisambiguationRecord.verdict_at`` alone decides
the verdict. Stage 3 attaches a clarification-request label, either one of
the six canonical phrases or a model-generated request naming the
ambiguity. Selection then balances the correct and ambiguous halves to
equal size. A ``Selection`` names both halves by sample id: ``label`` writes
it to ``selection.json``, ``emit`` reads it back, and both resolve it into
samples and records with ``Selection.halves``. Stages 1 and 2 map their
samples under ``evalkit.run_each``'s failure rule; generated labels tolerate
no failed sample.

Every per-sample outcome is a record keyed by its sample id, one line of
its checkpoint that ``jsonio.record_obj`` writes and ``jsonio.record_from``
reads; the stage-1 partition carries the dataset by id, for the stages that
need a sample's question, answers or gold label.

All randomness is derived per (master seed, purpose, sample id), so runs are
byte-reproducible and insensitive to dataset growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from .backend import Backend, GenerationParams, bounded_map
from .config import DEFAULT_ROUGE_THRESHOLD, LabelKind, SelectionStrategy
from .corpus import PromptTemplate, QASample, reply
from .entropy import TruncationMode, Verdict, classify, entropy_profile, info_gain
from .errors import ConfigurationError, DataIntegrityError
from .evalkit import (
    Errored,
    clarification_phrase,
    evaluate,
    is_clarification,
    run_each,
    run_prompted,
)
from .jsonio import (
    read_jsonl,
    record_at,
    record_from,
    record_obj,
    typed_field,
    write_jsonl_atomic,
)
from .phrases import FIXED_CLARIFICATIONS
from .seeding import derive_seed

EMPTY_DISAMBIGUATION_FLAG = "empty_disambiguation"
FALLBACK_FIXED_FLAG = "fallback_fixed"


@dataclass(frozen=True)
class AssessedSample:
    """Stage-1 outcome for one sample: its ``assess.jsonl`` line."""

    sample_id: str = field(metadata={"column": "id"})
    category: int
    prediction: str
    answer_entropy: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.category <= 5:
            raise DataIntegrityError(f"field 'category' must be 1-5, got {self.category}")


@dataclass(frozen=True)
class StageOnePartition:
    """Correct/incorrect split of the dataset ``samples`` (by id), with
    errored samples set aside."""

    samples: Mapping[str, QASample]
    correct: tuple[AssessedSample, ...]
    incorrect: tuple[AssessedSample, ...]
    errored: tuple[Errored, ...] = ()

    @classmethod
    def split(cls, samples: Mapping[str, QASample],
              outcomes: Sequence[AssessedSample | Errored]) -> StageOnePartition:
        """Categories 1 and 3 are correct, every other category incorrect."""
        assessed = [o for o in outcomes if not isinstance(o, Errored)]
        return cls(
            samples,
            correct=tuple(a for a in assessed if a.category in (1, 3)),
            incorrect=tuple(a for a in assessed if a.category not in (1, 3)),
            errored=tuple(o for o in outcomes if isinstance(o, Errored)),
        )


@dataclass(frozen=True)
class DisambiguationRecord:
    """Stage-2 measurement: the rewrite (empty if none) and both entropies."""

    sample_id: str = field(metadata={"column": "id"})
    query_text: str = field(metadata={"column": "query"})
    disambig_text: str = field(metadata={"column": "disambig"})
    h_query: float
    h_disambig: float
    info_gain: float

    def __post_init__(self) -> None:
        if abs(self.info_gain - (self.h_query - self.h_disambig)) > 1e-12:
            raise DataIntegrityError(
                f"record {self.sample_id}: info_gain {self.info_gain!r} != "
                f"h_query - h_disambig"
            )

    def verdict_at(self, epsilon: float) -> Verdict:
        """Ambiguous iff the record has a rewrite whose gain strictly exceeds epsilon."""
        if not self.disambig_text:
            return Verdict.PERCEIVED_UNAMBIGUOUS
        return classify(self.info_gain, epsilon)


@dataclass(frozen=True)
class ClarifyLabel:
    """Stage-3 label: a canonical phrase (fixed) or a clarification request (generated)."""

    sample_id: str = field(metadata={"column": "id"})
    text: str
    kind: LabelKind
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.text:
            raise DataIntegrityError(f"label for {self.sample_id}: empty text")
        if self.kind is LabelKind.FIXED and self.text not in FIXED_CLARIFICATIONS:
            raise DataIntegrityError(f"label for {self.sample_id}: fixed label is not canonical")
        if self.kind is LabelKind.GENERATED and not is_clarification(self.text):
            raise DataIntegrityError(f"label for {self.sample_id}: not a clarification request")


def unbalanced(correct: int, ambiguous: int) -> str:
    return f"unbalanced halves: {correct} correct vs {ambiguous} ambiguous"


@dataclass(frozen=True)
class Selection:
    """The balanced halves, by sample id: what ``label`` fixes for ``emit``,
    and the record ``selection.json`` holds. The halves are equal in size,
    and no id may appear twice."""

    strategy: SelectionStrategy
    epsilon: float
    correct_ids: tuple[str, ...]
    ambiguous_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        ids = self.correct_ids + self.ambiguous_ids
        if len(set(ids)) < len(ids):
            raise DataIntegrityError(f"duplicate id {next(i for i in ids if ids.count(i) > 1)!r}")
        if len(self.correct_ids) != len(self.ambiguous_ids):
            raise DataIntegrityError(unbalanced(len(self.correct_ids), len(self.ambiguous_ids)))

    def halves(self, partition: StageOnePartition, records: Sequence[DisambiguationRecord]
               ) -> tuple[tuple[QASample, ...], tuple[DisambiguationRecord, ...]]:
        """The correct samples, resolved in ``partition.correct``, and the
        ambiguous records, resolved in ``records``, each in the selection's
        order; an id outside its half is a DataIntegrityError."""
        correct_by_id = {a.sample_id: partition.samples[a.sample_id] for a in partition.correct}
        records_by_id = {r.sample_id: r for r in records}
        try:
            return (tuple(correct_by_id[i] for i in self.correct_ids),
                    tuple(records_by_id[i] for i in self.ambiguous_ids))
        except KeyError as exc:
            raise DataIntegrityError(f"selection names sample {exc} outside its half (the "
                                     "correct split or the detection records)") from exc


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
    """The direct baseline's outcome table on the dataset, split; an errored
    row becomes ``Errored``. The average token entropy of each generated
    answer is kept alongside, so the answer-entropy selection strategy needs
    no second pass.
    """
    answered = run_prompted("direct", samples, backend, templates, params)
    rows = evaluate(samples, [record for record, _ in answered], rouge_threshold)
    return StageOnePartition.split({s.id: s for s in samples}, [
        Errored(row.sample_id, row.error) if row.error is not None else AssessedSample(
            row.sample_id, row.category, row.prediction,
            entropy_profile(tokens, mode).average_entropy if tokens else None)
        for row, (_, tokens) in zip(rows, answered)])


# -- stage 2 -----------------------------------------------------------------


def stage2_disambiguate(
    samples: Sequence[QASample],
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
    *,
    mode: TruncationMode,
) -> tuple[list[DisambiguationRecord], list[Errored]]:
    """Self-disambiguate each query and measure the information gain; this
    stage only measures, and ``DisambiguationRecord.verdict_at`` decides.

    Both the query and its rewrite are scored as bare sentences against an
    empty prefix. The toy backend scores every token of each; a remote
    server gives a sequence's first token no distribution, so there the
    first token of both is skipped, and a one-token rewrite errors its
    sample. An empty rewrite yields a record with zero gain, unambiguous at
    every epsilon. The errored samples are returned separately.
    """
    template = templates["disambiguation"]

    def one(sample: QASample) -> DisambiguationRecord:
        disambig = reply(backend, template, params, question=sample.question)
        profile_q = entropy_profile(backend.score(sample.question, "").tokens, mode)
        profile_d = (entropy_profile(backend.score(disambig, "").tokens, mode)
                     if disambig else profile_q)
        gain = info_gain(profile_q, profile_d)
        return DisambiguationRecord(
            sample_id=sample.id,
            query_text=sample.question,
            disambig_text=disambig,
            h_query=profile_q.average_entropy,
            h_disambig=profile_d.average_entropy,
            info_gain=gain,
        )

    outcomes = run_each(samples, backend, one)
    return ([o for o in outcomes if not isinstance(o, Errored)],
            [o for o in outcomes if isinstance(o, Errored)])


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

    A record without a rewrite, and a reply that ``ClarifyLabel`` refuses as
    a generated label, fall back to a flagged fixed phrase; the first makes
    no backend call and is also flagged ``empty_disambiguation``.
    """
    flags = (FALLBACK_FIXED_FLAG, EMPTY_DISAMBIGUATION_FLAG)
    if record.disambig_text:
        text = reply(backend, templates["clarification"], params,
                     question=record.query_text, disambiguation=record.disambig_text)
        try:
            return ClarifyLabel(sample_id=record.sample_id, text=text, kind=LabelKind.GENERATED)
        except DataIntegrityError:
            flags = (FALLBACK_FIXED_FLAG,)
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
    """Label every record; generated labels are mapped with ``bounded_map``
    over ``backend.parallelism``."""
    if kind is LabelKind.FIXED:
        return [stage3_fixed_label(r.sample_id, master_seed) for r in records]
    return bounded_map(
        lambda record: stage3_generated_label(
            record, backend, templates, params, master_seed=master_seed
        ),
        records, backend.parallelism,
    )


# -- selection and balancing -------------------------------------------------


def perceived_ambiguous(
    records: Sequence[DisambiguationRecord], epsilon: float
) -> list[DisambiguationRecord]:
    return [r for r in records if r.verdict_at(epsilon) is Verdict.PERCEIVED_AMBIGUOUS]


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
    other strategy. The pool is sorted by the strategy's key, ties by sample
    id so that the records' order does not matter, and cut to the
    perceived-ambiguous count, so every strategy trains on the same budget;
    ``gt_random``'s key is a seeded draw per sample id. Both halves are then
    cut to the smaller one's size: the ambiguous half keeps its first
    records, the correct half a seeded subset (keyed by sample id) of the
    correct split, in its own order; the selection names both by sample id.
    An empty pool or correct split is a ConfigurationError; a record from
    outside the incorrect split (left over from another run) is a
    DataIntegrityError.
    """
    assessed = {a.sample_id: a for a in partition.incorrect}
    foreign = [r.sample_id for r in records if r.sample_id not in assessed]
    if foreign:
        raise DataIntegrityError(
            f"detection records for sample(s) not in the incorrect split: {foreign[:5]}; "
            "run `ambigkit detect` again"
        )
    perceived = perceived_ambiguous(records, epsilon)
    if strategy is SelectionStrategy.APA_INFOGAIN:
        pool = perceived
    else:
        pool = [r for r in records if partition.samples[r.sample_id].gold_ambiguous]
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
    ranked = sorted(pool, key=lambda r: (rank_key(r), r.sample_id))[:len(perceived)]
    if not ranked:
        raise ConfigurationError(
            "no ambiguous samples were selected; lower epsilon "
            f"(currently {epsilon}) or check the detection records"
        )

    correct = [a.sample_id for a in partition.correct]
    if not correct:
        raise ConfigurationError(
            "the correct split is empty: stage 1 answered no sample correctly, so nothing "
            "balances the ambiguous half; check the dataset's answers")
    size = min(len(correct), len(ranked))
    if len(correct) > size:  # a smaller correct half is kept whole, undrawn
        keep = set(sorted(
            correct, key=lambda sample_id: derive_seed(master_seed, "balance_correct", sample_id),
        )[:size])
        correct = [sample_id for sample_id in correct if sample_id in keep]
    return Selection(strategy, epsilon, correct_ids=tuple(correct),
                     ambiguous_ids=tuple(r.sample_id for r in ranked[:size]))


def sweep_epsilon(
    records: Sequence[DisambiguationRecord], epsilons: Sequence[float]
) -> list[tuple[float, int]]:
    """Ambiguous-pool size at each threshold, in the given order."""
    return [(eps, len(perceived_ambiguous(records, eps))) for eps in epsilons]


# -- checkpoint serialization --------------------------------------------------


def write_partition(partition: StageOnePartition, path: str | Path) -> None:
    write_jsonl_atomic(path, map(record_obj, partition.correct + partition.incorrect
                                 + partition.errored))


def read_partition(
    path: str | Path, samples_by_id: Mapping[str, QASample]
) -> StageOnePartition:
    """The partition written to ``path`` of the dataset ``samples_by_id``: a
    line with an ``error`` is an errored sample. An id outside the dataset is
    refused, and so is a category that disagrees with the sample's gold label
    (categories 1-2 need ``ambiguous: true``), as after a dataset edit."""
    outcomes: list[AssessedSample | Errored] = []
    for line_number, obj in read_jsonl(path, unique_ids=True):
        with record_at(path, line_number):
            outcome = record_from(Errored if "error" in obj else AssessedSample, obj)
            if outcome.sample_id not in samples_by_id:
                raise DataIntegrityError(f"sample {outcome.sample_id!r} not in the dataset")
            if isinstance(outcome, AssessedSample):
                gold = outcome.category <= 2
                if samples_by_id[outcome.sample_id].gold_ambiguous is not gold:
                    raise DataIntegrityError(
                        f"sample {outcome.sample_id!r}: category {outcome.category} needs "
                        f'"ambiguous": {str(gold).lower()} in the dataset; '
                        "run `ambigkit assess` again")
            outcomes.append(outcome)
    return StageOnePartition.split(samples_by_id, outcomes)


def write_records(records: Sequence[DisambiguationRecord], path: str | Path,
                  epsilon: float) -> None:
    write_jsonl_atomic(path, ({**record_obj(r), "verdict": r.verdict_at(epsilon).value,
                               "flags": [] if r.disambig_text else [EMPTY_DISAMBIGUATION_FLAG]}
                              for r in records))


def read_records(path: str | Path) -> list[DisambiguationRecord]:
    """The records in ``path``. A bad verdict or flags is refused, but neither is
    read: verdict_at derives both, from the gain and the rewrite."""
    records = []
    for line_number, obj in read_jsonl(path, unique_ids=True):
        with record_at(path, line_number):
            derived = {key: obj.pop(key) for key in ("verdict", "flags") if key in obj}
            typed_field(derived, "verdict", Verdict)
            if "flags" in derived:
                typed_field(derived, "flags", tuple)
            records.append(record_from(DisambiguationRecord, obj))
    return records


def write_labels(labels: Sequence[ClarifyLabel], path: str | Path) -> None:
    write_jsonl_atomic(path, map(record_obj, labels))


def read_labels(path: str | Path) -> list[ClarifyLabel]:
    labels = []
    for line_number, obj in read_jsonl(path, unique_ids=True):
        with record_at(path, line_number):
            labels.append(record_from(ClarifyLabel, obj))
    return labels
