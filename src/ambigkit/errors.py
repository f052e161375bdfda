"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: configuration errors exit 2, backend
errors exit 3, data-integrity errors exit 4.
"""

from __future__ import annotations


class AmbigkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(AmbigkitError):
    """Invalid or inconsistent run configuration."""


class BackendError(AmbigkitError):
    """Base class for model-backend failures."""


class TransportError(BackendError):
    """Network-level failure after exhausting retries."""

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempts)")
        self.attempts = attempts


class ProtocolError(BackendError):
    """Backend answered, but the payload does not match the wire contract."""

    def __init__(self, message: str, payload_excerpt: str = ""):
        if payload_excerpt:
            message = f"{message}; payload excerpt: {payload_excerpt!r}"
        super().__init__(message)


class CapabilityError(BackendError):
    """Backend lacks a required feature (e.g. echo scoring or logprobs)."""


class DataIntegrityError(AmbigkitError):
    """Data violates a documented invariant."""


class ParseError(DataIntegrityError):
    """A serialized record could not be parsed. The message starts with
    where: ``<where> line <n>: ``, or either part alone."""

    def __init__(self, message: str, line_number: int | None = None,
                 where: object = None):
        place = [] if where is None else [str(where)]
        if line_number is not None:
            place.append(f"line {line_number}")
        if place:
            message = f"{' '.join(place)}: {message}"
        super().__init__(message)


class TemplateError(DataIntegrityError):
    """A prompt template and its slots disagree."""


class VocabularyError(DataIntegrityError):
    """A token is outside the toy model's vocabulary."""

    def __init__(self, token: str):
        super().__init__(f"token not in vocabulary: {token!r}")


class NormalizationError(DataIntegrityError):
    """A probability vector or token distribution is not normalized."""


class EmptyInputError(DataIntegrityError):
    """An operation received an empty input it cannot process."""
