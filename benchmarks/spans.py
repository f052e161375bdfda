"""In-memory span tracer for the benchmark's traced run.

The wrappers live here, outside the program: each wraps a public function of
one ``ambigkit`` module where it is looked up. A name bound with
``from .x import y`` is patched in the importing module (for example
``ambigkit.pipeline.entropy_profile``), and methods are patched on their
class. Spans stay in memory; ``per_layer`` turns them into metrics when the
run ends. A span's self time is its duration minus the part of it covered by
its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

_MISSING = object()

# (owner, attribute, span name, kind). Owner is a module path, or a module
# path plus a class name for methods. Kinds: "span" records a span and counts
# the positions of a scoring, generation or entropy result; "write" also
# counts the bytes written; "count" only counts calls; "map" wraps
# bounded_map so each item gets a span named after the caller; "read"
# materialises the read_jsonl generator inside its span.
PATCHES = [
    ("ambigkit.cli", "load_config", "config.load_config", "span"),
    ("ambigkit.cli", "make_backend", "config.make_backend", "span"),
    ("ambigkit.cli", "config_hash", "config.config_hash", "span"),
    ("ambigkit.cli", "load_dataset", "corpus.load_dataset", "span"),
    ("ambigkit.cli", "load_templates", "corpus.load_templates", "span"),
    ("ambigkit.sft", "load_templates", "corpus.load_templates", "span"),
    ("ambigkit.cli", "template_fingerprints", "corpus.template_fingerprints", "span"),
    ("ambigkit.cli", "stage1_assess", "pipeline.stage1_assess", "span"),
    ("ambigkit.cli", "stage2_disambiguate", "pipeline.stage2_disambiguate", "span"),
    ("ambigkit.cli", "label_records", "pipeline.label_records", "span"),
    ("ambigkit.cli", "select_and_balance", "pipeline.select_and_balance", "span"),
    ("ambigkit.cli", "read_partition", "pipeline.read_partition", "span"),
    ("ambigkit.cli", "read_records", "pipeline.read_records", "span"),
    ("ambigkit.cli", "read_labels", "pipeline.read_labels", "span"),
    ("ambigkit.cli", "write_partition", "pipeline.write_partition", "span"),
    ("ambigkit.cli", "write_records", "pipeline.write_records", "span"),
    ("ambigkit.cli", "write_labels", "pipeline.write_labels", "span"),
    ("ambigkit.pipeline", "bounded_map", "backend.bounded_map", "map"),
    ("ambigkit.evalkit", "bounded_map", "backend.bounded_map", "map"),
    ("ambigkit.toy:ToyBackend", "generate", "toy.generate", "span"),
    ("ambigkit.toy:ToyBackend", "score", "toy.score", "span"),
    ("ambigkit.remote:RemoteCompletionsBackend", "generate", "remote.generate", "span"),
    ("ambigkit.remote:RemoteCompletionsBackend", "score", "remote.score", "span"),
    ("requests:Session", "post", "remote.http", "span"),
    ("ambigkit.pipeline", "entropy_profile", "entropy.entropy_profile", "span"),
    ("ambigkit.pipeline", "categorize", "evalkit.categorize", "span"),
    ("ambigkit.evalkit", "categorize", "evalkit.categorize", "span"),
    ("ambigkit.cli", "run_direct", "evalkit.run_direct", "span"),
    ("ambigkit.cli", "run_ambig_aware", "evalkit.run_ambig_aware", "span"),
    ("ambigkit.cli", "run_sample_rep", "evalkit.run_sample_rep", "span"),
    ("ambigkit.cli", "run_self_ask", "evalkit.run_self_ask", "span"),
    ("ambigkit.cli", "evaluate", "evalkit.evaluate", "span"),
    ("ambigkit.cli", "sft_emit", "sft.emit", "span"),
    ("ambigkit.cli", "sft_verify", "sft.verify", "span"),
    ("ambigkit.cli", "write_jsonl_atomic", "jsonio.write_jsonl", "span"),
    ("ambigkit.pipeline", "write_jsonl_atomic", "jsonio.write_jsonl", "span"),
    ("ambigkit.sft", "write_jsonl_atomic", "jsonio.write_jsonl", "span"),
    ("ambigkit.cli", "write_json_atomic", "jsonio.write_json", "span"),
    ("ambigkit.jsonio", "write_text_atomic", "jsonio.write_text", "write"),
    ("ambigkit.cli", "read_jsonl", "jsonio.read", "read"),
    ("ambigkit.pipeline", "read_jsonl", "jsonio.read", "read"),
    ("ambigkit.sft", "read_jsonl", "jsonio.read", "read"),
    ("ambigkit.seeding", "derive_seed", "seeding.derive_seed", "count"),
    ("ambigkit.pipeline", "derive_seed", "seeding.derive_seed", "count"),
    ("ambigkit.sft", "derive_seed", "seeding.derive_seed", "count"),
]

def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class _TimeProxy:
    """Stands in for the ``time`` module inside ``ambigkit.remote`` so that
    retry backoff sleeps become spans."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(time, name)

    def sleep(self, seconds):
        with self._tracer.span("remote.backoff"):
            time.sleep(seconds)


class Tracer:
    def __init__(self):
        self.spans: dict[int, tuple[str, float, float, int | None]] = {}
        self.counts: Counter = Counter()
        self.map_workers: dict[int, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def span(self, name: str, parent: int | None = None):
        return _Span(self, name, parent)

    def current(self) -> tuple[int, str] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- patching --------------------------------------------------------

    def _wrapper(self, name: str, kind: str, fn):
        tracer = self

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.count(name + ".calls")
                return fn(*args, **kwargs)
            return counted

        if kind == "map":
            @functools.wraps(fn)
            def mapped(item_fn, items, max_workers):
                items = list(items)
                caller = tracer.current()
                item_name = (caller[1] if caller else "unknown") + ".item"
                with tracer.span(name) as map_id:
                    tracer.count(name + ".items", len(items))
                    tracer.map_workers[map_id] = max(1, min(max_workers, len(items)))

                    def item(x):
                        with tracer.span(item_name, parent=map_id):
                            return item_fn(x)

                    return fn(item, items, max_workers)
            return mapped

        if kind == "read":
            @functools.wraps(fn)
            def read(*args, **kwargs):
                with tracer.span(name):
                    lines = list(fn(*args, **kwargs))
                tracer.count(name + ".lines", len(lines))
                return iter(lines)
            return read

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if kind == "write":
                tracer.count("jsonio.write.bytes", os.path.getsize(args[0]))
            tokens = getattr(result, "tokens", None)
            positions = len(tokens) if tokens is not None else getattr(result, "token_count", None)
            if isinstance(positions, int):
                tracer.count(name + ".positions", positions)
            return result
        return spanned

    def install(self) -> None:
        for owner_path, attr, name, kind in PATCHES:
            try:
                owner = _resolve(owner_path)
            except (ImportError, AttributeError):
                owner = None
            original = getattr(owner, attr, _MISSING) if owner is not None else _MISSING
            if original is _MISSING:
                print(f"trace: {owner_path}.{attr} not found; not traced", file=sys.stderr)
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, kind, original))
        remote = importlib.import_module("ambigkit.remote")
        if getattr(remote, "time", None) is time:
            self._patches.append((remote, "time", remote.time))
            remote.time = _TimeProxy(self)
        else:
            print("trace: ambigkit.remote.time not found; backoff not traced",
                  file=sys.stderr)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, t0, t1, parent in self.spans.values():
            if parent is not None:
                children[parent].append((t0, t1))
        result = {}
        for sid, (_, t0, t1, _) in self.spans.items():
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            result[sid] = (t1 - t0) - covered
        return result


class _Span:
    __slots__ = ("tracer", "name", "parent", "sid", "t0")

    def __init__(self, tracer: Tracer, name: str, parent: int | None):
        self.tracer, self.name, self.parent = tracer, name, parent

    def __enter__(self) -> int:
        stack = self.tracer._stack()
        if self.parent is None and stack:
            self.parent = stack[-1][0]
        self.sid = next(self.tracer._ids)
        stack.append((self.sid, self.name))
        self.t0 = time.perf_counter()
        return self.sid

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans[self.sid] = (self.name, self.t0, t1, self.parent)
        if exc_type is not None:
            self.tracer.count(f"{self.name}.errors.{exc_type.__name__}")


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def per_layer(tracer: Tracer, reps: int, commands: list[str]) -> dict[str, float]:
    """Per-layer metrics, per command sequence (totals divided by ``reps``)."""
    self_time = tracer.self_times()
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    own_list: dict[str, list[float]] = defaultdict(list)
    jsonio_write = 0.0
    busy = capacity = 0.0
    for sid, (name, t0, t1, parent) in tracer.spans.items():
        total[name] += t1 - t0
        own[name] += self_time[sid]
        calls[name] += 1
        durations[name].append(t1 - t0)
        own_list[name].append(self_time[sid])
        if name.startswith("jsonio.write") and not (
                parent is not None and tracer.spans[parent][0].startswith("jsonio.")):
            jsonio_write += t1 - t0
        if name.endswith(".item") and parent in tracer.map_workers:
            busy += t1 - t0
        if sid in tracer.map_workers:
            capacity += tracer.map_workers[sid] * (t1 - t0)

    def per_rep(value: float) -> float:
        return value / reps

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in own.items() if k.startswith(prefix))

    counts = tracer.counts
    http_attempts = calls["remote.http"]
    remote_calls = calls["remote.generate"] + calls["remote.score"]

    def errors(cls: str) -> int:
        return sum(n for k, n in counts.items()
                   if k.startswith(("remote.generate.errors.", "remote.score.errors."))
                   and k.endswith(cls))

    metrics = {}
    for command in commands:
        metrics[f"cli.{command}.wall_s"] = per_rep(total[f"cli.{command}"])
    metrics.update({
        "cli.self_s": per_rep(layer_self("cli.")),
        "config.make_backend.calls": per_rep(calls["config.make_backend"]),
        "config.make_backend.s": per_rep(total["config.make_backend"]),
        "corpus.load_templates.calls": per_rep(calls["corpus.load_templates"]),
        "corpus.load_templates.s": per_rep(total["corpus.load_templates"]),
        "corpus.load_dataset.s": per_rep(total["corpus.load_dataset"]),
        **{f"pipeline.{stage}.self_s": per_rep(
            own[f"pipeline.{stage}"] + own[f"pipeline.{stage}.item"])
           for stage in ("stage1_assess", "stage2_disambiguate", "label_records")},
        "pipeline.select_and_balance.s": per_rep(total["pipeline.select_and_balance"]),
        "backend.bounded_map.items": per_rep(counts["backend.bounded_map.items"]),
        "backend.bounded_map.busy_share": busy / capacity if capacity else 0.0,
        "toy.generate.calls": per_rep(calls["toy.generate"]),
        "toy.generate.self_s": per_rep(own["toy.generate"]),
        "toy.score.calls": per_rep(calls["toy.score"]),
        "toy.score.self_s": per_rep(own["toy.score"]),
        "toy.positions": per_rep(counts["toy.generate.positions"] + counts["toy.score.positions"]),
        "remote.generate.calls": per_rep(calls["remote.generate"]),
        "remote.score.calls": per_rep(calls["remote.score"]),
        "remote.http_ms.p50": 1000 * _percentile(durations["remote.http"], 50),
        "remote.http_ms.p99": 1000 * _percentile(durations["remote.http"], 99),
        "remote.client_ms.p50": 1000 * _percentile(
            own_list["remote.generate"] + own_list["remote.score"], 50),
        "remote.client_ms.p99": 1000 * _percentile(
            own_list["remote.generate"] + own_list["remote.score"], 99),
        "remote.retries": per_rep(http_attempts - remote_calls) if http_attempts else 0.0,
        "remote.backoff_s": per_rep(total["remote.backoff"]),
        "remote.failures.transport": per_rep(errors("TransportError")),
        "remote.failures.protocol": per_rep(errors("ProtocolError")),
        "entropy.entropy_profile.calls": per_rep(calls["entropy.entropy_profile"]),
        "entropy.entropy_profile.self_s": per_rep(own["entropy.entropy_profile"]),
        "entropy.positions": per_rep(counts["entropy.entropy_profile.positions"]),
        "evalkit.categorize.calls": per_rep(calls["evalkit.categorize"]),
        "evalkit.categorize.self_s": per_rep(own["evalkit.categorize"]),
        "evalkit.run_sample_rep.self_s": per_rep(
            own["evalkit.run_sample_rep"] + own["evalkit.run_sample_rep.item"]),
        "evalkit.evaluate.s": per_rep(total["evalkit.evaluate"]),
        "sft.emit.s": per_rep(total["sft.emit"]),
        "sft.verify.s": per_rep(total["sft.verify"]),
        "jsonio.write.s": per_rep(jsonio_write),
        "jsonio.write.bytes": per_rep(counts["jsonio.write.bytes"]),
        "jsonio.read.s": per_rep(total["jsonio.read"]),
        "jsonio.read.lines": per_rep(counts["jsonio.read.lines"]),
        "seeding.derive_seed.calls": per_rep(counts["seeding.derive_seed.calls"]),
    })
    return metrics
