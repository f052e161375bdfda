from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

from ambigkit.config import (
    BackendSpec,
    RunConfig,
    SampleRepConfig,
    config_hash,
    load_config,
    make_backend,
)
from ambigkit.entropy import TruncationMode
from ambigkit.errors import ConfigurationError
from ambigkit.toy import ToyBackend

from conftest import FIXTURES


def write_config(tmp_path: Path, **overrides) -> Path:
    config = {
        "backend": {"kind": "toy", "fixture": "world.yaml", "parallelism": 2},
        "dataset": "data/corpus.jsonl",
        "workdir": "out",
        "epsilon": 0.25,
        "truncation_mode": "exact",
        "seed": 3,
    }
    config.update(overrides)
    path = tmp_path / "nested" / "run.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config))
    return path


def test_paths_resolve_against_config_directory(tmp_path):
    path = write_config(tmp_path)
    config = load_config(path)
    base = tmp_path / "nested"
    assert config.dataset == str((base / "data/corpus.jsonl").resolve())
    assert config.workdir == str((base / "out").resolve())
    assert config.backend.fixture == str((base / "world.yaml").resolve())
    assert config.truncation_mode is TruncationMode.EXACT
    assert config.epsilon == 0.25
    assert config.seed == 3


def test_absolute_paths_kept(tmp_path):
    dataset = tmp_path / "abs.jsonl"
    path = write_config(tmp_path, dataset=str(dataset))
    assert load_config(path).dataset == str(dataset)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, mystery=1)
    with pytest.raises(ConfigurationError, match="mystery"):
        load_config(path)


def test_unknown_backend_key_rejected(tmp_path):
    path = write_config(tmp_path, backend={"kind": "toy", "fixture": "x", "port": 1})
    with pytest.raises(ConfigurationError, match="port"):
        load_config(path)


def test_dataset_required(tmp_path):
    config = {"backend": {"kind": "toy", "fixture": "x"}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigurationError, match="dataset"):
        load_config(path)


def test_bad_truncation_mode_rejected(tmp_path):
    for mode in ("sideways", "renormalize"):
        path = write_config(tmp_path, truncation_mode=mode)
        with pytest.raises(ConfigurationError,
                           match=f"'{mode}' is not one of tail_lump, exact"):
            load_config(path)


def test_bad_strategy_rejected(tmp_path):
    path = write_config(tmp_path, strategy="magic")
    with pytest.raises(ConfigurationError, match="'magic' is not one of apa_infogain, "):
        load_config(path)


def test_bad_label_kind_rejected(tmp_path):
    path = write_config(tmp_path, label_kind="typed")
    with pytest.raises(ConfigurationError, match="'typed' is not one of fixed, generated"):
        load_config(path)


def test_backend_spec_validation():
    with pytest.raises(ConfigurationError):
        BackendSpec(kind="carrier-pigeon")
    with pytest.raises(ConfigurationError):
        BackendSpec(kind="toy", fixture=None)
    with pytest.raises(ConfigurationError):
        BackendSpec(kind="remote", endpoint=None)
    with pytest.raises(ConfigurationError):
        BackendSpec(kind="toy", fixture="x", parallelism=0)


def test_overrides_win(tmp_path):
    updated = load_config(write_config(tmp_path),
                          {"seed": 9, "epsilon": 0.7, "workdir": str(tmp_path / "o2")})
    assert updated.seed == 9
    assert updated.epsilon == 0.7
    assert updated.workdir == str((tmp_path / "o2").resolve())
    # untouched fields survive
    assert updated.truncation_mode is TruncationMode.EXACT


def test_backend_override_parsing(tmp_path):
    path = write_config(tmp_path)
    toy = load_config(path, {"backend": "toy:/somewhere/world.yaml"})
    assert toy.backend.kind == "toy"
    assert toy.backend.fixture == "/somewhere/world.yaml"
    remote = load_config(path, {"backend": "remote:http://h:1/v1/completions"})
    assert remote.backend.kind == "remote"
    assert remote.backend.endpoint == "http://h:1/v1/completions"
    with pytest.raises(ConfigurationError):
        load_config(path, {"backend": "smoke-signals"})


def test_config_hash_tracks_content(tmp_path):
    a = load_config(write_config(tmp_path))
    b = load_config(write_config(tmp_path), {"epsilon": 0.9})
    assert config_hash(a) == config_hash(a)
    assert config_hash(a) != config_hash(b)


def test_config_hash_is_pinned(tmp_path):
    # Fixed absolute paths and a non-default value for every key; the digest
    # changes only when the hashed form of a config does.
    config = {
        "backend": {
            "kind": "remote", "fixture": "/fixed/world.yaml",
            "endpoint": "http://127.0.0.1:8000/v1/completions", "model": "m",
            "api_key": "sk-test", "top_k": 5, "parallelism": 3,
        },
        "dataset": "/fixed/corpus.jsonl",
        "workdir": "/fixed/out",
        "epsilon": 0.25,
        "truncation_mode": "exact",
        "seed": 7,
        "template_dir": "/fixed/templates",
        "max_tokens": 16,
        "rouge_threshold": 0.4,
        "strategy": "gt_max_infogain",
        "label_kind": "generated",
        "sample_rep": {"threshold": 0.6, "num_samples": 4, "temperature": 0.7},
    }
    # Every setting is set, so a new one cannot bypass the digest or the
    # conversion by its declared type.
    for section, cls in ((config, RunConfig), (config["backend"], BackendSpec),
                         (config["sample_rep"], SampleRepConfig)):
        assert set(section) == {f.name for f in fields(cls)}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert config_hash(load_config(path)) == (
        "630122f315d674bb2de7838cf0c9c9fb23ecee5f5a83dd8acb01d2dfcffdf9b4"
    )


def test_backend_flag_does_not_mend_a_backend_that_is_not_an_object(tmp_path):
    path = write_config(tmp_path, backend=["toy"])
    with pytest.raises(ConfigurationError, match="'backend' must be an object"):
        load_config(path, {"backend": "toy:/somewhere/world.yaml"})


def test_a_flag_replaces_the_file_value_unchecked(tmp_path):
    # Only the effective config is converted and checked.
    path = write_config(tmp_path, seed="not a number", epsilon=float("nan"))
    config = load_config(path, {"seed": 4, "epsilon": 0.5})
    assert (config.seed, config.epsilon) == (4, 0.5)


@pytest.mark.parametrize("value,seed", [(3, 3), (3.0, 3), (-2.0, -2)])
def test_integer_setting_takes_a_whole_number(tmp_path, value, seed):
    assert load_config(write_config(tmp_path, seed=value)).seed == seed


@pytest.mark.parametrize(
    "value", [3.5, -0.5, float("inf"), float("-inf"), float("nan"), "3.5", "3"],
    ids=["fraction", "negative-fraction", "inf", "-inf", "nan", "text-fraction", "text"])
def test_integer_setting_refuses_anything_else_naming_the_key(tmp_path, value):
    with pytest.raises(ConfigurationError, match="run.json: field 'seed' must be an integer"):
        load_config(write_config(tmp_path, seed=value))


@pytest.mark.parametrize("value", [0.0, 0.3, 0.999])
def test_rouge_threshold_in_range_loads(tmp_path, value):
    assert load_config(write_config(tmp_path, rouge_threshold=value)).rouge_threshold == value


@pytest.mark.parametrize("patch,key", [
    ({"backend": {"kind": "toy", "fixture": "x", "top_k": "3"}}, "top_k"),
    ({"epsilon": "0.2"}, "epsilon"),
], ids=["top_k", "epsilon"])
def test_numeric_string_setting_is_refused_naming_the_key(tmp_path, patch, key):
    # A setting keeps its JSON type, as every record field does: no coercion.
    with pytest.raises(ConfigurationError, match=f"field {key!r} must be an? "):
        load_config(write_config(tmp_path, **patch))


def test_config_hash_excludes_api_key(tmp_path):
    path = write_config(
        tmp_path,
        backend={"kind": "remote", "endpoint": "http://h/v1", "api_key": "sk-1"},
    )
    first = config_hash(load_config(path))
    path.write_text(
        path.read_text().replace("sk-1", "sk-2")
    )
    assert config_hash(load_config(path)) == first


def test_make_backend_builds_toy():
    spec = BackendSpec(
        kind="toy",
        fixture=str(FIXTURES / "tables" / "bigram_ab.yaml"),
        parallelism=3,
    )
    backend = make_backend(spec)
    assert isinstance(backend, ToyBackend)
    assert backend.parallelism == 3
    assert backend.top_k == 4  # defaults to the full vocabulary
