"""What the benchmark uses of the program, checked without running it.

``benchmarks/run.py`` writes its configs with ``write_config`` and loads them
through ``load_config``; ``benchmarks/spans.py`` wraps program functions by
module and name. A change under ``src`` that broke either would make the
benchmark exit 2, or stop tracing a layer with only a warning. The benchmark
is loaded read-only: no bytecode is written next to it.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
import time
from pathlib import Path

import pytest

from ambigkit import evalkit, pipeline, remote
from ambigkit.config import load_config, make_backend

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"

# Traced names the program no longer has, each an open benchmark repair.
# Stage 1 grades through evalkit.evaluate, so its categorize calls are traced
# by the ambigkit.evalkit patch.
KNOWN_UNRESOLVED = {("ambigkit.cli", "read_jsonl"), ("ambigkit.pipeline", "categorize")}


@pytest.fixture()
def bench_run(monkeypatch):
    """``benchmarks/run.py`` as a module. ``sys.path`` is restored and the
    benchmark's modules are dropped afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks the module up by name while the body runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for name, loaded in list(sys.modules.items()):
            if Path(getattr(loaded, "__file__", None) or "/").parent == BENCH:
                del sys.modules[name]


def test_benchmark_configs_load(bench_run, tmp_path):
    backends = {
        "toy": {"kind": "toy", "fixture": "world.yaml", "top_k": None, "parallelism": 2},
        "remote": {"kind": "remote", "endpoint": "http://127.0.0.1:9/v1/completions",
                   "model": "stub", "top_k": 20, "parallelism": 2},
    }
    for kind, backend in backends.items():
        path = tmp_path / f"config_{kind}.json"
        bench_run.write_config(path, backend, "dataset.jsonl", 1)
        config = load_config(path)
        assert config.backend.kind == kind
        assert config.dataset == str(tmp_path / "dataset.jsonl")
    # config is the remote one: setup_s times make_backend on it, which opens
    # no connection.
    make_backend(config.backend).close()


def test_every_traced_program_name_resolves(bench_run):
    spans = bench_run.spans
    unresolved = set()
    for owner_path, attr, _, _ in spans.PATCHES:
        if owner_path.partition(".")[0] != "ambigkit":
            continue
        if not hasattr(spans._resolve(owner_path), attr):
            unresolved.add((owner_path, attr))
    assert unresolved == KNOWN_UNRESOLVED
    # The "map" wrapper calls bounded_map(fn, items, max_workers) positionally,
    # and backoff spans replace the remote module's time.
    for module in (pipeline, evalkit):
        inspect.signature(module.bounded_map).bind(print, [], 1)
    assert remote.time is time
