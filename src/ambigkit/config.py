"""Run configuration: one JSON file plus command-line flags. Every setting's
type and default is declared here, so this module imports no stage module.

``load_config`` reads each section, a dataclass below, with
``jsonio.record_from``, as every JSON record is read: a bad setting exits 2
naming the file and the key. Paths inside the file resolve against its
directory, so a config can travel with its fixtures. A flag replaces the
file's value before it is read, so both pass the same checks. ``recorded``
is a run's settings as every manifest writes them and ``config_hash`` hashes.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from urllib.parse import urlsplit

from .backend import Backend
from .entropy import TruncationMode
from .errors import ConfigurationError, DataIntegrityError
from .jsonio import read_json_object, record_at, record_from, record_obj

DEFAULT_ROUGE_THRESHOLD = 0.3


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


# Field metadata of a path setting: a relative one resolves against the
# config file's directory.
_PATH = {"path": True}


@dataclass(frozen=True)
class BackendSpec:
    kind: str = "toy"
    fixture: str | None = field(default=None, metadata=_PATH)
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
        # http.client fails every request, and not with a BackendError, on a
        # request target or header it cannot send. Neither message shows the
        # value: an api_key is a secret.
        if self.kind == "remote":
            url = urlsplit(self.endpoint)
            if not all("!" <= char <= "~" for char in url.path + url.query):
                raise ConfigurationError("backend 'endpoint' path and query must be "
                                         "printable ASCII without spaces")
        if self.api_key is not None and not (self.api_key.isascii()
                                             and self.api_key.isprintable()):
            raise ConfigurationError("backend 'api_key' must be printable ASCII")


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
        if self.num_samples < 1:
            raise ConfigurationError("sample_rep num_samples must be >= 1")
        if self.temperature <= 0:  # at 0 every draw is the greedy reply
            raise ConfigurationError(
                f"sample_rep temperature must be finite and > 0, got {self.temperature}"
            )


@dataclass(frozen=True)
class RunConfig:
    backend: BackendSpec
    dataset: str = field(metadata=_PATH)
    workdir: str = field(default="out", metadata=_PATH)
    epsilon: float = 0.1
    truncation_mode: TruncationMode = TruncationMode.TAIL_LUMP
    seed: int = 0
    template_dir: str | None = field(default=None, metadata=_PATH)
    max_tokens: int = 64
    rouge_threshold: float = DEFAULT_ROUGE_THRESHOLD
    strategy: SelectionStrategy = SelectionStrategy.APA_INFOGAIN
    label_kind: LabelKind = LabelKind.FIXED
    sample_rep: SampleRepConfig = field(default_factory=SampleRepConfig)

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ConfigurationError("max_tokens must be >= 1")
        if not 0 <= self.rouge_threshold < 1:  # NaN included
            raise ConfigurationError(
                f"rouge_threshold must lie in [0, 1), got {self.rouge_threshold}"
            )


def recorded(config: RunConfig) -> dict:
    """The config's record without the API key, which is a secret."""
    obj = record_obj(config)
    del obj["backend"]["api_key"]
    return obj


def config_hash(config: RunConfig) -> str:
    """SHA-256 of the recorded settings, keys sorted."""
    return hashlib.sha256(json.dumps(recorded(config), sort_keys=True).encode()).hexdigest()


def _resolved(section, base: Path):
    """``section`` with each relative path setting resolved against ``base``."""
    changes = {}
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            changes[f.name] = _resolved(value, base)
        elif f.metadata.get("path") and value is not None:
            value = Path(value)
            changes[f.name] = str(value if value.is_absolute() else (base / value).resolve())
    return replace(section, **changes)


def _backend_flag(section: object, value: str) -> object:
    """``section`` with ``--backend`` (``toy:<fixture>`` or
    ``remote:<endpoint>``) applied; the file's other backend keys stay."""
    kind, _, rest = value.partition(":")
    key = {"toy": "fixture", "remote": "endpoint"}.get(kind)
    if key is None or not rest:
        raise ConfigurationError("backend override must look like toy:<fixture> "
                                 f"or remote:<endpoint>, got {value!r}")
    if not isinstance(section, dict):  # refused as it would be without the flag
        return section
    rest = str(Path(rest).resolve()) if kind == "toy" else rest
    return {**section, "kind": kind, "fixture": None, "endpoint": None, key: rest}


def load_config(path: str | Path, flags: dict | None = None) -> RunConfig:
    """Load, validate, and path-resolve a JSON config file: each section is
    read by ``jsonio.record_from``, and a bad one exits 2 naming the file and
    the key. ``flags`` maps a setting name to its command-line value, None if
    not given; each given one replaces the file's value before it is read, so
    both pass the same checks. A flag's path resolves against the working
    directory, not the file's."""
    path = Path(path)
    try:
        obj = {"backend": {}, **read_json_object(path)}  # no backend section: an empty one
        given = {key: value for key, value in (flags or {}).items() if value is not None}
        if "backend" in given:
            given["backend"] = _backend_flag(obj["backend"], given["backend"])
        if "workdir" in given:
            given["workdir"] = str(Path(given["workdir"]).resolve())
        with record_at(path):
            config = record_from(RunConfig, {**obj, **given})
    except DataIntegrityError as exc:  # not UTF-8, not JSON, or a bad setting
        raise ConfigurationError(f"bad config: {exc}") from exc
    return _resolved(config, path.parent)


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
        top_k=spec.top_k,
        parallelism=spec.parallelism,
        journal=journal,
    )
