"""Exceptions shared across the toolkit: one class per exit code the CLI
maps them onto (ConfigurationError 2, BackendError 3, DataIntegrityError 4),
and a subclass only where code tells it apart (NormalizationError), where it
carries or formats its message (TransportError, ProtocolError, ParseError,
VocabularyError), or where it marks a feature the backend lacks rather than
a bad answer (CapabilityError).
"""

from __future__ import annotations


class ConfigurationError(Exception):
    """Invalid or inconsistent run configuration."""


class BackendError(Exception):
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


class DataIntegrityError(Exception):
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


class VocabularyError(DataIntegrityError):
    """A token is outside the toy model's vocabulary."""

    def __init__(self, token: str):
        super().__init__(f"token not in vocabulary: {token!r}")


class NormalizationError(DataIntegrityError):
    """A probability vector or token distribution is not normalized."""
