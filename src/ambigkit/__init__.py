"""Toolkit for perceived-ambiguity measurement, clarification-labeled
training-set construction, and ambiguity-handling evaluation of language
models."""

from .backend import (
    Backend,
    FinishReason,
    GenerationParams,
    GenerationResult,
    ScoringResult,
    TokenDistribution,
)
from .entropy import (
    EntropyProfile,
    TruncationMode,
    Verdict,
    classify,
    entropy_profile,
    info_gain,
    token_entropy,
)
from .evalkit import (
    OutcomeCounts,
    categorize,
    f1_ambig,
    f1_unambig,
    is_clarification,
    mcr,
    rouge_l,
)
from .corpus import PromptTemplate, QASample, load_dataset, load_templates
from .toy import NgramTable, ToyBackend, as_backend, load_ngram_table

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "EntropyProfile",
    "FinishReason",
    "GenerationParams",
    "GenerationResult",
    "NgramTable",
    "OutcomeCounts",
    "PromptTemplate",
    "QASample",
    "ScoringResult",
    "TokenDistribution",
    "ToyBackend",
    "TruncationMode",
    "Verdict",
    "as_backend",
    "categorize",
    "classify",
    "entropy_profile",
    "f1_ambig",
    "f1_unambig",
    "info_gain",
    "is_clarification",
    "load_dataset",
    "load_ngram_table",
    "load_templates",
    "mcr",
    "rouge_l",
    "token_entropy",
]
