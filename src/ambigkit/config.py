"""Run configuration: one JSON file plus command-line overrides.

Paths inside the file resolve relative to the file's own directory, so a
config can travel with its fixtures. Flag overrides win over file values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from urllib.parse import urlsplit

from .backend import Backend
from .entropy import TruncationMode
from .errors import ConfigurationError, DataIntegrityError
from .evalkit import DEFAULT_ROUGE_THRESHOLD
from .jsonio import read_json_object
from .pipeline import LabelKind, SelectionStrategy


@dataclass(frozen=True)
class BackendSpec:
    kind: str = "toy"
    fixture: str | None = None
    endpoint: str | None = None
    model: str | None = None
    api_key: str | None = None
    top_k: int | None = None
    parallelism: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("toy", "remote"):
            raise ConfigurationError(f"backend kind must be toy or remote, got {self.kind!r}")
        if self.parallelism < 1:
            raise ConfigurationError("backend parallelism must be >= 1")
        if self.top_k is not None and self.top_k < 1:
            raise ConfigurationError(f"backend top_k must be >= 1, got {self.top_k}")
        if self.kind == "toy" and not self.fixture:
            raise ConfigurationError("toy backend requires a 'fixture' path")
        if self.kind == "remote" and not _is_http_url(self.endpoint):
            raise ConfigurationError(
                f"remote backend requires an http(s) 'endpoint' URL, got {self.endpoint!r}"
            )


def _is_http_url(value: object) -> bool:
    if not isinstance(value, str):
        return False
    try:
        parts = urlsplit(value)
        parts.port  # a malformed port raises ValueError
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


@dataclass(frozen=True)
class SampleRepConfig:
    # The threshold default is a placeholder for experimentation, not a
    # recommended value; sweep it per model and dataset.
    threshold: float = 0.5
    num_samples: int = 10
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold):
            raise ConfigurationError(
                f"sample_rep threshold must be finite, got {self.threshold}"
            )
        if self.num_samples < 1:
            raise ConfigurationError("sample_rep num_samples must be >= 1")
        if not self.temperature >= 0:
            raise ConfigurationError(
                f"sample_rep temperature must be >= 0, got {self.temperature}"
            )


@dataclass(frozen=True)
class RunConfig:
    backend: BackendSpec
    dataset: str
    workdir: str = "out"
    epsilon: float = 0.1
    truncation_mode: TruncationMode = TruncationMode.TAIL_LUMP
    seed: int = 0
    template_dir: str | None = None
    max_tokens: int = 64
    rouge_threshold: float = DEFAULT_ROUGE_THRESHOLD
    strategy: SelectionStrategy = SelectionStrategy.APA_INFOGAIN
    label_kind: LabelKind = LabelKind.FIXED
    sample_rep: SampleRepConfig = field(default_factory=SampleRepConfig)

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ConfigurationError(f"epsilon must be finite, got {self.epsilon}")
        if self.max_tokens < 1:
            raise ConfigurationError("max_tokens must be >= 1")


def config_hash(config: RunConfig) -> str:
    """Hash of the effective configuration (API key excluded)."""
    obj = asdict(config)
    del obj["backend"]["api_key"]
    canonical = json.dumps(obj, sort_keys=True, default=lambda member: member.value)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _section(cls, obj: object, where: str, convert: dict):
    """Build one config section from the keys ``obj`` holds, each through
    its ``convert`` entry if it has one; an absent key takes the dataclass
    default."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"'{where}' must be an object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigurationError(
            f"unknown {where} key(s): {', '.join(sorted(unknown))}"
        )
    values = {}
    for key, value in obj.items():
        try:
            values[key] = convert[key](value) if key in convert else value
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad {where} value for {key!r}: {exc}") from exc
    return cls(**values)


def load_config(path: str | Path) -> RunConfig:
    """Load, validate, and path-resolve a JSON config file."""
    path = Path(path)
    try:
        obj = read_json_object(path)
    except DataIntegrityError as exc:  # not UTF-8, not JSON or not an object
        raise ConfigurationError(f"bad config: {exc}") from exc
    if "dataset" not in obj:
        raise ConfigurationError("config requires a 'dataset' path")

    def relative(value):
        """A path relative to the config file's directory; None stays None."""
        if value is None:
            return None
        value = Path(value)
        return str(value if value.is_absolute() else (path.parent / value).resolve())

    def relative_str(value):
        return relative(str(value))

    # An absent backend section is an empty one, and the default workdir is
    # relative to the config file like a given one.
    obj = {"backend": {}, "workdir": RunConfig.workdir, **obj}
    return _section(RunConfig, obj, "config", {
        "backend": partial(_section, BackendSpec, where="backend", convert={
            "fixture": relative,
            "top_k": lambda value: None if value is None else int(value),
            "parallelism": int,
        }),
        "dataset": relative_str,
        "workdir": relative_str,
        "epsilon": float,
        "truncation_mode": TruncationMode,
        "seed": int,
        "template_dir": relative,
        "max_tokens": int,
        "rouge_threshold": float,
        "strategy": SelectionStrategy,
        "label_kind": LabelKind,
        "sample_rep": partial(_section, SampleRepConfig, where="sample_rep", convert={
            "threshold": float, "num_samples": int, "temperature": float,
        }),
    })


def apply_overrides(
    config: RunConfig,
    *,
    seed: int | None = None,
    epsilon: float | None = None,
    backend: str | None = None,
    out: str | None = None,
) -> RunConfig:
    """Apply flag overrides; flags win over file values.

    ``backend`` takes the form ``toy:<fixture-path>`` or
    ``remote:<endpoint-url>``.
    """
    if seed is not None:
        config = replace(config, seed=seed)
    if epsilon is not None:
        config = replace(config, epsilon=epsilon)
    if out is not None:
        config = replace(config, workdir=str(Path(out).resolve()))
    if backend is not None:
        kind, sep, rest = backend.partition(":")
        if not sep or not rest:
            raise ConfigurationError(
                "backend override must look like toy:<fixture> or remote:<endpoint>"
            )
        if kind == "toy":
            spec = replace(
                config.backend, kind="toy", fixture=str(Path(rest).resolve()),
                endpoint=None,
            )
        elif kind == "remote":
            spec = replace(config.backend, kind="remote", endpoint=rest, fixture=None)
        else:
            raise ConfigurationError(f"unknown backend kind {kind!r}")
        config = replace(config, backend=spec)
    return config


def make_backend(spec: BackendSpec, *, journal: str | Path | None = None) -> Backend:
    """Instantiate the configured backend. A remote backend given ``journal``
    sends each deterministic request at most once (see
    ``remote.RequestJournal``); the toy backend ignores it."""
    if spec.kind == "toy":
        from .toy import ToyBackend, load_ngram_table

        table = load_ngram_table(spec.fixture)
        try:
            return ToyBackend(table, top_k=spec.top_k, parallelism=spec.parallelism)
        except ValueError as exc:  # top_k beyond the fixture's vocabulary
            raise ConfigurationError(f"backend {exc}") from exc
    from .remote import RemoteCompletionsBackend

    return RemoteCompletionsBackend(
        spec.endpoint,
        spec.model or "default",
        api_key=spec.api_key,
        top_k=spec.top_k or 20,
        parallelism=spec.parallelism,
        journal=journal,
    )
