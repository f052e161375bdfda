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

from .corpus import PromptTemplate, load_templates
from .errors import DataIntegrityError
from .jsonio import read_jsonl, typed_field, write_jsonl_atomic
from .phrases import FIXED_CLARIFICATIONS
from .pipeline import AssessedSample, ClarifyLabel, DisambiguationRecord, LabelKind
from .seeding import derive_seed


class Source(enum.Enum):
    CORRECT = "correct"
    AMBIG = "ambig"


@dataclass(frozen=True)
class SftRecord:
    """One exported training pair with provenance."""

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

    def to_obj(self) -> dict:
        return {
            "id": self.id,
            "prompt": self.prompt,
            "completion": self.completion,
            "source": self.source.value,
            "clarify_kind": self.clarify_kind.value if self.clarify_kind else None,
        }


def emit(
    correct: Sequence[AssessedSample],
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
        raise DataIntegrityError(
            f"halves must be balanced: {len(correct)} correct vs "
            f"{len(ambiguous)} ambiguous"
        )
    records: list[SftRecord] = []
    for assessed in correct:
        sample = assessed.sample
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
    write_jsonl_atomic(path, (r.to_obj() for r in records))
    return len(records)


@dataclass
class VerifyReport:
    """Re-parse result for an exported training file. Each failure is a line
    number and a message; line 0 marks a failure of the whole file (one that
    does not parse, holds no records, or has unbalanced halves)."""

    total: int
    per_source: Counter
    per_kind: Counter
    failures: list[tuple[int, str]]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        parts = [
            f"{self.total} records",
            f"correct={self.per_source.get('correct', 0)}",
            f"ambig={self.per_source.get('ambig', 0)}",
            f"fixed={self.per_kind.get('fixed', 0)}",
            f"generated={self.per_kind.get('generated', 0)}",
            f"failures={len(self.failures)}",
        ]
        return ", ".join(parts)


def verify(path: str | Path, answer_cue: str | None = None) -> VerifyReport:
    """Re-check every line of an exported file against the format invariants.

    ``answer_cue`` defaults to the packaged direct template's cue; pass the
    run's own cue when a custom template directory was used.
    """
    if answer_cue is None:
        answer_cue = load_templates()["direct"].answer_cue
    failures: list[tuple[int, str]] = []
    per_source: Counter = Counter()
    per_kind: Counter = Counter()
    seen_ids: set[str] = set()
    total = 0
    try:
        entries = list(read_jsonl(path))
    except DataIntegrityError as exc:
        return VerifyReport(0, Counter(), Counter(), [(0, str(exc))])
    if not entries:  # emit never writes an empty file
        return VerifyReport(0, Counter(), Counter(), [(0, f"{path}: no records")])
    for line_number, obj in entries:
        total += 1

        def fail(message: str) -> None:
            failures.append((line_number, message))

        missing = [k for k in ("id", "prompt", "completion", "source") if k not in obj]
        if missing:
            fail(f"missing field(s): {', '.join(missing)}")
            continue
        try:
            record_id, prompt, completion, source = (
                typed_field(obj, key, str) for key in ("id", "prompt", "completion", "source")
            )
            kind = typed_field(obj, "clarify_kind", str, None)
        except TypeError as exc:
            fail(str(exc))
            continue
        if record_id in seen_ids:
            fail(f"duplicate id {record_id!r}")
        seen_ids.add(record_id)
        if source not in ("correct", "ambig"):
            fail(f"bad source {source!r}")
            continue
        per_source[source] += 1
        if source == "ambig":
            if kind not in ("fixed", "generated"):
                fail(f"ambiguous record needs clarify_kind, got {kind!r}")
            else:
                per_kind[kind] += 1
                if kind == "fixed" and completion not in FIXED_CLARIFICATIONS:
                    fail("fixed completion is not one of the canonical phrases")
        elif kind is not None:
            fail(f"correct record must not carry clarify_kind, got {kind!r}")
        if not completion:
            fail("empty completion")
        if not prompt.endswith(answer_cue):
            fail(f"prompt does not end with the answer cue {answer_cue!r}")
    if per_source.get("correct", 0) != per_source.get("ambig", 0):
        failures.append(
            (
                0,
                f"unbalanced halves: {per_source.get('correct', 0)} correct vs "
                f"{per_source.get('ambig', 0)} ambig",
            )
        )
    return VerifyReport(total, per_source, per_kind, failures)
