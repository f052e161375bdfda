"""QA dataset I/O, prompt templates, and automated question ambiguation.

Datasets are JSONL files with one object per line:
``{"id", "question", "answers", "ambiguous", "source"}``. The question and
every answer must hold more than whitespace. ``answers`` may be empty only
for ambiguous samples; ``ambiguous`` is optional (absent when no gold
ambiguity label exists).

Prompt templates are plain-text assets with literal ``<slot>`` markers and
are substituted verbatim, with no escaping and no recursion. The packaged
assets under ``ambigkit/templates/`` are the canonical bodies; a run may
point at an alternative directory with the same file names.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from .backend import Backend, GenerationParams, bounded_map
from .errors import DataIntegrityError, TemplateError
from .jsonio import input_file, read_jsonl, record_at, record_from

# Trailing characters ignored when parsing one-word verdicts like "Yes.".
_WORD_PUNCT = ".,!?;:"


@dataclass(frozen=True)
class QASample:
    """One question with gold answers and an optional gold ambiguity label."""

    id: str
    question: str
    answers: tuple[str, ...] = ()
    gold_ambiguous: bool | None = field(default=None, metadata={"column": "ambiguous",
                                                                "optional": True})
    source: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise DataIntegrityError("sample id must be non-empty")
        if not self.question.strip():
            raise DataIntegrityError(f"sample {self.id}: question must not be blank")
        if not all(answer.strip() for answer in self.answers):
            raise DataIntegrityError(f"sample {self.id}: an answer must not be blank")
        if self.gold_ambiguous is False and not self.answers:
            raise DataIntegrityError(
                f"sample {self.id}: unambiguous samples need at least one answer"
            )


def load_dataset(path: str | Path) -> list[QASample]:
    """Order-preserving JSONL load; duplicate ids are rejected. An integer id
    reads as its string form; every other field keeps its JSON type."""
    samples = []
    for line_number, obj in read_jsonl(path, unique_ids=True):
        with record_at(path, line_number):
            if type(obj.get("id")) is int:
                obj = {**obj, "id": str(obj["id"])}
            samples.append(record_from(QASample, obj))
    return samples


def trim_continuation(text: str) -> str:
    """Cut a model continuation at the first newline and strip whitespace.

    Templates are line-oriented; anything past the first newline belongs to
    the next few-shot block, not to the answer.
    """
    return text.split("\n", 1)[0].strip()


@dataclass(frozen=True)
class PromptTemplate:
    """A named template body with literal slot markers.

    ``slots`` maps slot names to their markers; every declared marker must
    appear exactly once in the body.
    """

    name: str
    body: str
    slots: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for slot, marker in self.slots.items():
            count = self.body.count(marker)
            if count != 1:
                raise TemplateError(
                    f"template {self.name!r}: marker {marker!r} for slot "
                    f"{slot!r} appears {count} times, expected exactly once"
                )

    def render(self, **values: str) -> str:
        """Substitute all declared slots simultaneously and literally."""
        missing = [s for s in self.slots if s not in values]
        if missing:
            raise TemplateError(
                f"template {self.name!r}: missing slot(s) {', '.join(missing)}"
            )
        unknown = [s for s in values if s not in self.slots]
        if unknown:
            raise TemplateError(
                f"template {self.name!r}: unknown slot(s) {', '.join(unknown)}"
            )
        by_marker = {marker: values[slot] for slot, marker in self.slots.items()}
        if not by_marker:
            return self.body
        pattern = re.compile("|".join(re.escape(m) for m in by_marker))
        return pattern.sub(lambda m: by_marker[m.group(0)], self.body)

    @property
    def answer_cue(self) -> str:
        """The literal body text after the last slot marker.

        Rendered prompts always end with this cue; exporters use it to check
        that a prompt was produced by this template.
        """
        last_end = 0
        for marker in self.slots.values():
            idx = self.body.rfind(marker)
            last_end = max(last_end, idx + len(marker))
        return self.body[last_end:]


# Canonical template names and their slot markers. The marker spellings match
# the shipped bodies and are part of the asset contract.
TEMPLATE_SLOTS: dict[str, dict[str, str]] = {
    "direct": {"question": "<question>"},
    "disambiguation": {"question": "<question>"},
    "clarification": {
        "question": "<ambiguous question>",
        "disambiguation": "<disambiguation>",
    },
    "ambiguity_aware": {"question": "<question>"},
    "self_ask": {"question": "<question>", "answer": "<generated answer>"},
    "ambiguate": {"question": "<question>"},
    "ambiguation_validation": {"candidate": "<ambiguous generation>"},
}


def _packaged_template_dir() -> Path:
    return Path(str(resources.files("ambigkit").joinpath("templates")))


def load_templates(directory: str | Path | None = None) -> dict[str, PromptTemplate]:
    """Load the canonical template set from ``directory`` (packaged default).

    A template body is its file content minus one trailing newline. A body
    without each of its slot markers exactly once is refused with a
    ParseError naming its file.
    """
    base = Path(directory) if directory is not None else _packaged_template_dir()
    templates: dict[str, PromptTemplate] = {}
    for name, slots in TEMPLATE_SLOTS.items():
        path = base / f"{name}.txt"
        with input_file(path):
            body = path.read_text(encoding="utf-8")
        if body.endswith("\n"):
            body = body[:-1]
        with record_at(path):
            templates[name] = PromptTemplate(name=name, body=body, slots=slots)
    return templates


def template_fingerprints(templates: Mapping[str, PromptTemplate]) -> dict[str, str]:
    """SHA-256 of each template body, for run manifests."""
    return {
        name: hashlib.sha256(tpl.body.encode("utf-8")).hexdigest()
        for name, tpl in sorted(templates.items())
    }


def reply(backend: Backend, template: PromptTemplate, params: GenerationParams,
          **slots: str) -> str:
    """The model's reply to ``template`` filled with ``slots``: the generated
    continuation, cut by ``trim_continuation``."""
    return trim_continuation(backend.generate(template.render(**slots), params).text)


def first_word(text: str) -> str:
    """Lowercased first word without trailing punctuation: the one-word
    verdict of a validator or self-ask reply."""
    words = text.split()
    return words[0].rstrip(_WORD_PUNCT).lower() if words else ""


def ambiguate(
    samples: Sequence[QASample],
    backend: Backend,
    templates: Mapping[str, PromptTemplate],
    params: GenerationParams,
) -> tuple[list[QASample], list[dict]]:
    """Rewrite each question into an ambiguated candidate. A sample whose
    validator reply starts with "yes" (case-insensitive) is accepted as
    gold-ambiguous, with the candidate as its question; any other is a
    ``{"id", "reason"}`` reject: ``empty_generation``, or
    ``validation_failed`` with its ``candidate``. Both lists keep input
    order. Samples are mapped with ``bounded_map`` over
    ``backend.parallelism``. A backend failure propagates."""
    rewrite, validator = templates["ambiguate"], templates["ambiguation_validation"]

    def one(sample: QASample) -> QASample | dict:
        candidate = reply(backend, rewrite, params, question=sample.question)
        if not candidate:
            return {"id": sample.id, "reason": "empty_generation"}
        if first_word(reply(backend, validator, params, candidate=candidate)) != "yes":
            return {"id": sample.id, "reason": "validation_failed", "candidate": candidate}
        return replace(sample, question=candidate, gold_ambiguous=True)

    outcomes = bounded_map(one, samples, backend.parallelism)
    return ([o for o in outcomes if isinstance(o, QASample)],
            [o for o in outcomes if not isinstance(o, QASample)])


def read_allowlist(path: str | Path) -> frozenset[str]:
    """The sample ids listed in an allowlist file, one per line. Keeping only
    these stands in for a human-validation pass."""
    with input_file(path), open(path, "r", encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())
