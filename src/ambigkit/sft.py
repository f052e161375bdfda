"""Training-set export: one (prompt, completion) JSON object per line.

The prompt is the question rendered through the direct template; the
completion is the first listed gold answer for correct samples and the
clarification label for ambiguous ones. The file interleaves both halves in
a stable seeded order and is byte-identical across reruns with the same
inputs and seed.

Any external trainer reproduces the intended objective by minimizing
next-token cross-entropy on the completion tokens only, conditioned on the
prompt; no trainer is bundled here.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import PromptTemplate, QASample, load_templates
from .errors import DataIntegrityError, ParseError
from .jsonio import read_jsonl, record_at, record_from, record_obj, write_jsonl_atomic
from .pipeline import ClarifyLabel, DisambiguationRecord, LabelKind
from .seeding import derive_seed


class Source(enum.Enum):
    CORRECT = "correct"
    AMBIG = "ambig"


@dataclass(frozen=True)
class SftRecord:
    """One exported training pair with provenance. An ambiguous record's
    completion is a valid clarification label of its kind."""

    id: str
    prompt: str
    completion: str
    source: Source
    clarify_kind: LabelKind | None = None

    def __post_init__(self) -> None:
        if not self.completion:
            raise DataIntegrityError(f"record {self.id}: empty completion")
        if (self.source is Source.AMBIG) != (self.clarify_kind is not None):
            raise DataIntegrityError(
                f"record {self.id}: clarify_kind must be present exactly for "
                "ambiguous records"
            )
        if self.clarify_kind is not None:
            ClarifyLabel(self.id, self.completion, self.clarify_kind)


def _unbalanced(correct: int, ambiguous: int) -> str:
    return f"unbalanced halves: {correct} correct vs {ambiguous} ambiguous"


def emit(
    correct: Sequence[QASample],
    ambiguous: Sequence[DisambiguationRecord],
    labels: Mapping[str, ClarifyLabel],
    direct_template: PromptTemplate,
    path: str | Path,
    *,
    master_seed: int,
) -> int:
    """Write the balanced training set; returns the record count.

    Requires equal halves and a label for every ambiguous sample. The line
    order is a stable shuffle keyed by (seed, sample id), so it does not
    depend on input order and changes only with the seed.
    """
    if len(correct) != len(ambiguous):
        raise DataIntegrityError(_unbalanced(len(correct), len(ambiguous)))
    records: list[SftRecord] = []
    for sample in correct:
        if not sample.answers:
            raise DataIntegrityError(f"sample {sample.id}: no gold answer to train on")
        records.append(
            SftRecord(
                id=sample.id,
                prompt=direct_template.render(question=sample.question),
                completion=sample.answers[0],
                source=Source.CORRECT,
            )
        )
    for record in ambiguous:
        label = labels.get(record.sample_id)
        if label is None:
            raise DataIntegrityError(
                f"sample {record.sample_id}: no clarification label"
            )
        records.append(
            SftRecord(
                id=record.sample_id,
                prompt=direct_template.render(question=record.query_text),
                completion=label.text,
                source=Source.AMBIG,
                clarify_kind=label.kind,
            )
        )
    records.sort(key=lambda r: derive_seed(master_seed, "emit_order", r.id))
    write_jsonl_atomic(path, map(record_obj, records))
    return len(records)


@dataclass
class VerifyReport:
    """Re-parse result for an exported training file. Each failure is a
    message naming the file, and the line for a failure of one line."""

    total: int
    per_source: Counter
    per_kind: Counter
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        return {
            "records": self.total,
            **{source.value: self.per_source[source.value] for source in Source},
            **{kind.value: self.per_kind[kind.value] for kind in LabelKind},
            "failures": len(self.failures),
        }

    def summary(self) -> str:
        (_, total), *rest = self.counts().items()
        return ", ".join([f"{total} records", *(f"{key}={n}" for key, n in rest)])


def verify(path: str | Path, answer_cue: str | None = None) -> VerifyReport:
    """Re-read an exported file: every line must build an ``SftRecord`` with
    a new id and a prompt ending in the answer cue, and the halves must
    match. A bad line gives one failure, its first.

    ``answer_cue`` defaults to the packaged direct template's cue; pass the
    run's own cue when a custom template directory was used.
    """
    if answer_cue is None:
        answer_cue = load_templates()["direct"].answer_cue
    try:
        entries = list(read_jsonl(path))
        if not entries:  # emit never writes an empty file
            raise ParseError("no records", where=path)
    except DataIntegrityError as exc:
        return VerifyReport(0, Counter(), Counter(), [str(exc)])
    failures: list[str] = []
    per_source: Counter = Counter()
    per_kind: Counter = Counter()
    seen_ids: set[str] = set()
    for line_number, obj in entries:
        if obj.get("source") in [source.value for source in Source]:
            per_source[obj["source"]] += 1
        try:
            with record_at(path, line_number):
                record = record_from(SftRecord, obj)
                if record.clarify_kind is not None:
                    per_kind[record.clarify_kind.value] += 1
                if record.id in seen_ids:
                    raise ValueError(f"duplicate id {record.id!r}")
                seen_ids.add(record.id)
                if not record.prompt.endswith(answer_cue):
                    raise ValueError(f"prompt does not end with the answer cue {answer_cue!r}")
        except ParseError as exc:
            failures.append(str(exc))
    if per_source["correct"] != per_source["ambig"]:
        unbalanced = _unbalanced(per_source["correct"], per_source["ambig"])
        failures.append(str(ParseError(unbalanced, where=path)))
    return VerifyReport(len(entries), per_source, per_kind, failures)
