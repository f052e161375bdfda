"""Run configuration: one JSON file plus command-line overrides.

Paths inside the file resolve relative to the file's own directory, so a
config can travel with its fixtures. Flag overrides win over file values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .backend import Backend
from .entropy import TruncationMode
from .errors import ConfigurationError
from .pipeline import LabelKind, SelectionStrategy

_CONFIG_KEYS = {
    "backend",
    "dataset",
    "workdir",
    "epsilon",
    "truncation_mode",
    "seed",
    "template_dir",
    "max_tokens",
    "rouge_threshold",
    "strategy",
    "label_kind",
    "sample_rep",
}
_BACKEND_KEYS = {"kind", "fixture", "endpoint", "model", "api_key", "top_k", "parallelism"}
_SAMPLE_REP_KEYS = {"threshold", "num_samples", "temperature"}


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
        if self.kind == "toy" and not self.fixture:
            raise ConfigurationError("toy backend requires a 'fixture' path")
        if self.kind == "remote" and not self.endpoint:
            raise ConfigurationError("remote backend requires an 'endpoint' URL")


@dataclass(frozen=True)
class SampleRepConfig:
    # The threshold default is a placeholder for experimentation, not a
    # recommended value; sweep it per model and dataset.
    threshold: float = 0.5
    num_samples: int = 10
    temperature: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    backend: BackendSpec
    dataset: str
    workdir: str
    epsilon: float = 0.1
    truncation_mode: TruncationMode = TruncationMode.TAIL_LUMP
    seed: int = 0
    template_dir: str | None = None
    max_tokens: int = 64
    rouge_threshold: float = 0.3
    strategy: SelectionStrategy = SelectionStrategy.APA_INFOGAIN
    label_kind: LabelKind = LabelKind.FIXED
    sample_rep: SampleRepConfig = field(default_factory=SampleRepConfig)

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ConfigurationError(f"epsilon must be finite, got {self.epsilon}")
        if self.max_tokens < 1:
            raise ConfigurationError("max_tokens must be >= 1")

    def to_obj(self) -> dict:
        return {
            "backend": {
                "kind": self.backend.kind,
                "fixture": self.backend.fixture,
                "endpoint": self.backend.endpoint,
                "model": self.backend.model,
                "top_k": self.backend.top_k,
                "parallelism": self.backend.parallelism,
            },
            "dataset": self.dataset,
            "workdir": self.workdir,
            "epsilon": self.epsilon,
            "truncation_mode": self.truncation_mode.value,
            "seed": self.seed,
            "template_dir": self.template_dir,
            "max_tokens": self.max_tokens,
            "rouge_threshold": self.rouge_threshold,
            "strategy": self.strategy.value,
            "label_kind": self.label_kind.value,
            "sample_rep": {
                "threshold": self.sample_rep.threshold,
                "num_samples": self.sample_rep.num_samples,
                "temperature": self.sample_rep.temperature,
            },
        }


def config_hash(config: RunConfig) -> str:
    """Hash of the effective configuration (API key excluded)."""
    canonical = json.dumps(config.to_obj(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown {where} key(s): {', '.join(sorted(unknown))}"
        )


def _resolve(base: Path, value: str | None) -> str | None:
    if value is None:
        return None
    path = Path(value)
    return str(path if path.is_absolute() else (base / path).resolve())


def load_config(path: str | Path) -> RunConfig:
    """Load, validate, and path-resolve a JSON config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigurationError("config must be a JSON object")
    _check_keys(obj, _CONFIG_KEYS, "config")
    base = path.parent

    backend_obj = obj.get("backend", {})
    if not isinstance(backend_obj, dict):
        raise ConfigurationError("'backend' must be an object")
    _check_keys(backend_obj, _BACKEND_KEYS, "backend")
    backend = BackendSpec(
        kind=backend_obj.get("kind", "toy"),
        fixture=_resolve(base, backend_obj.get("fixture")),
        endpoint=backend_obj.get("endpoint"),
        model=backend_obj.get("model"),
        api_key=backend_obj.get("api_key"),
        top_k=backend_obj.get("top_k"),
        parallelism=int(backend_obj.get("parallelism", 4)),
    )

    sr_obj = obj.get("sample_rep", {})
    if not isinstance(sr_obj, dict):
        raise ConfigurationError("'sample_rep' must be an object")
    _check_keys(sr_obj, _SAMPLE_REP_KEYS, "sample_rep")
    sample_rep = SampleRepConfig(
        threshold=float(sr_obj.get("threshold", 0.5)),
        num_samples=int(sr_obj.get("num_samples", 10)),
        temperature=float(sr_obj.get("temperature", 1.0)),
    )

    if "dataset" not in obj:
        raise ConfigurationError("config requires a 'dataset' path")
    try:
        truncation_mode = TruncationMode(obj.get("truncation_mode", "tail_lump"))
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    try:
        strategy = SelectionStrategy(obj.get("strategy", "apa_infogain"))
        label_kind = LabelKind(obj.get("label_kind", "fixed"))
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc

    return RunConfig(
        backend=backend,
        dataset=_resolve(base, str(obj["dataset"])),
        workdir=_resolve(base, str(obj.get("workdir", "out"))),
        epsilon=float(obj.get("epsilon", 0.1)),
        truncation_mode=truncation_mode,
        seed=int(obj.get("seed", 0)),
        template_dir=_resolve(base, obj.get("template_dir")),
        max_tokens=int(obj.get("max_tokens", 64)),
        rouge_threshold=float(obj.get("rouge_threshold", 0.3)),
        strategy=strategy,
        label_kind=label_kind,
        sample_rep=sample_rep,
    )


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
        if not math.isfinite(epsilon):
            raise ConfigurationError("epsilon override must be finite")
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
        return ToyBackend(table, top_k=spec.top_k, parallelism=spec.parallelism)
    from .remote import RemoteCompletionsBackend

    return RemoteCompletionsBackend(
        spec.endpoint,
        spec.model or "default",
        api_key=spec.api_key,
        top_k=spec.top_k or 20,
        parallelism=spec.parallelism,
        journal=journal,
    )
