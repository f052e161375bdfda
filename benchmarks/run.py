"""ambigkit benchmark: the CLI chain on seeded inputs, end to end and per layer.

Usage, from the repository root::

    python3 benchmarks/run.py --workload remote-build --seed 1 --seconds 15 --trace 0

Each run first has a child process generate the inputs from ``--seed`` (see
``world.py``) and make the toy reference run. It then drives
``ambigkit.cli.main`` in-process through the workload's command sequence,
once untimed to check and warm up, then repeatedly for ``--seconds``, each
repetition in an empty working directory. Remote workloads talk to the stub
completions server (``stub.py``) in a child process. Load is a closed loop:
the config's ``parallelism: 2`` gives two workers, each waiting for its
reply, over two keep-alive connections.

Every repetition passes the correctness gate or the run fails: each command
exits 0 (``verify`` included), the toy reference run matches the outcome the
generator planned for every sample, and every repetition's checkpoints equal
the reference's byte for byte (in ``remote-flaky``, apart from the samples the
fault schedule refuses for good, which must be exactly the errored ones).

The last line of stdout is one JSON object. With ``--trace 0`` it holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run, plus the tracing overhead against an untraced run of the same length.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import http.client
import io
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import world  # noqa: E402

BUILD = (("assess",), ("detect",), ("label",), ("emit",), ("verify",))
EVAL = tuple(("eval", "--strategy", s)
             for s in ("direct", "ambig_aware", "sample_rep", "self_ask"))
# setup_s spawns: one before the timed repetitions and two after each, so
# the median spans the run rather than one moment of the host's speed.
SETUP_SPAWNS_PER_REP = 2
MIN_REPS = 3
MIN_REPS_TRACED = 2
# remote-flaky fault schedule: samples whose assess request is refused on
# every attempt (they error out), and samples whose assess and detect
# scoring requests are refused on the first attempt only.
PERMANENT_ASSESS = 2
TRANSIENT = 3


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]
    n: int
    faults: bool = False


WORKLOADS = {
    "remote-build": Workload(BUILD, n=40),
    "remote-eval": Workload((("assess",),) + EVAL, n=16),
    "remote-flaky": Workload(BUILD, n=40, faults=True),
}


class GateError(Exception):
    """The program's outputs are wrong; the run reports no numbers."""


def command_name(command: tuple[str, ...]) -> str:
    return ".".join(a for a in command if not a.startswith("--"))


def import_program():
    if not (SRC / "ambigkit" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no ambigkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ambigkit.cli

    if Path(ambigkit.cli.__file__).resolve().parent != SRC / "ambigkit":
        raise SystemExit(f"benchmark: imported ambigkit from {ambigkit.cli.__file__}")
    return ambigkit.cli


# -- inputs -------------------------------------------------------------------


def write_config(path: Path, backend: dict, dataset: str, seed: int) -> None:
    path.write_text(json.dumps({
        "backend": backend,
        "dataset": dataset,
        "workdir": "out",
        "epsilon": world.EPSILON,
        "truncation_mode": "exact",
        "seed": seed,
        "template_dir": "templates",
        "max_tokens": 8,
        "rouge_threshold": 0.3,
        "strategy": "apa_infogain",
        "label_kind": "generated",
        "sample_rep": {"threshold": 0.5, "num_samples": 10, "temperature": 1.0},
    }, indent=2))


def fault_schedule(w: world.World, seed: int) -> tuple[list[str], dict]:
    """Permanently refused sample ids and the stub's fault file contents.

    Samples are chosen by digest rank. The direct prompts of two correctly
    answered unambiguous samples are refused on every attempt. These come
    from the half that selection subsamples, so every later count is the same
    for any seed. Three incorrect samples have their direct prompt and their
    question-scoring request refused on the first attempt only. The chosen
    samples move to the head of the dataset, where a worker's backoff
    overlaps the other worker's work; further back, the wall time would
    depend on where the seed happened to put them.
    """
    from stub import request_key

    def pick(category_ok, k: int) -> list[world.Sample]:
        pool = {s.question: s for s in w.samples if category_ok(s.category)}
        return [pool[q] for q in world.digest_rank(seed, list(pool))[:k]]

    permanent = pick(lambda c: c == 3, PERMANENT_ASSESS)
    transient = pick(lambda c: c in (2, 4, 5), TRANSIENT)
    head = permanent + transient
    w.samples = head + [s for s in w.samples if s not in head]
    return [s.id for s in permanent], {
        "permanent": [request_key(w.direct_prompt(s), False) for s in permanent],
        "transient": [request_key(w.direct_prompt(s), False) for s in transient]
        + [request_key(s.question, True) for s in transient],
    }


# -- the stub -----------------------------------------------------------------


class StubProcess:
    def __init__(self, world_json: Path, faults: Path | None):
        argv = [sys.executable, str(BENCH_DIR / "stub.py"), "--world", str(world_json)]
        if faults is not None:
            argv += ["--faults", str(faults)]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError("stub server did not start")
        self.port = int(line.split()[1])
        self.endpoint = f"http://127.0.0.1:{self.port}/v1/completions"

    def _call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def reset(self) -> None:
        self._call("POST", "/control/reset")

    def stats(self) -> dict:
        return self._call("GET", "/control/stats")

    def stop(self) -> None:
        """Closing the stub's stdin stops it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- running the chain --------------------------------------------------------


def run_chain(cli, config: Path, workdir: Path, commands, tracer=None) -> float:
    """Run every command in a fresh ``workdir``; returns the wall time."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # so a repetition does not pay for the previous one's garbage
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for command in commands:
            argv = ["--config", str(config), "--out", str(workdir), *command]
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli." + command_name(command)):
                    code = cli.main(argv)
            if code != 0:
                raise GateError(f"`ambigkit {' '.join(command)}` exited {code}: "
                                f"{err.getvalue().strip()[-500:]}")
    return time.perf_counter() - t0


def checkpoint_names(commands) -> list[str]:
    names = []
    for command in commands:
        if command[0] == "eval":
            names.append(f"predictions_{command[-1]}.jsonl")
        else:
            names += {"assess": ["assess.jsonl"], "detect": ["records.jsonl"],
                      "label": ["labels.jsonl", "selection.json"],
                      "emit": ["sft.jsonl"]}.get(command[0], [])
    return names


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def attempted_samples(workdir: Path, commands) -> tuple[int, int]:
    """(samples attempted, samples errored) over the commands that call the
    backend, read from their checkpoints."""
    attempted = errored = 0
    for command in commands:
        if command[0] in ("assess", "eval"):
            name = "assess.jsonl" if command[0] == "assess" else f"predictions_{command[-1]}.jsonl"
            objs = read_jsonl(workdir / name)
            attempted += len(objs)
            errored += sum("error" in o for o in objs)
        elif command[0] == "detect":
            incorrect = sum(o.get("category") in (2, 4, 5)
                            for o in read_jsonl(workdir / "assess.jsonl"))
            attempted += incorrect
            errored += incorrect - len(read_jsonl(workdir / "records.jsonl"))
        elif command[0] == "label":
            attempted += len(read_jsonl(workdir / "labels.jsonl"))
    return attempted, errored


def check_reference(w: world.World, workdir: Path, commands, skip: set[str]) -> None:
    """The toy run matches the outcome the generator planned per sample."""
    samples = {s.id: s for s in w.samples if s.id not in skip}

    def jsonl(name):
        return read_jsonl(workdir / name)

    def expect(ok: bool, what: str) -> None:
        if not ok:
            raise GateError(f"reference run: {what}")

    names = checkpoint_names(commands)
    assess = {o["id"]: o for o in jsonl("assess.jsonl")}
    expect(set(assess) == set(samples), "assess ids")
    expect(all(assess[i].get("category") == s.category for i, s in samples.items()),
           "assess categories")
    perceived = {i for i, s in samples.items() if s.perceived}
    if "records.jsonl" in names:
        records = jsonl("records.jsonl")
        expect([r["id"] for r in records]
               == [i for i, s in samples.items() if s.perceived is not None], "detect ids")
        expect(all((r["verdict"] == "perceived_ambiguous") == samples[r["id"]].perceived
                   for r in records), "detect verdicts")
    if "labels.jsonl" in names:
        labels = jsonl("labels.jsonl")
        expect({x["id"] for x in labels} == perceived, "label ids")
        expect(all((x["kind"] == "fixed") == samples[x["id"]].label_fallback
                   for x in labels), "label kinds")
        selection = json.loads((workdir / "selection.json").read_text())
        expect(set(selection["ambiguous_ids"]) == perceived
               and len(selection["correct_ids"]) == len(perceived), "selection")
    if "sft.jsonl" in names:
        expect(len(jsonl("sft.jsonl")) == 2 * len(perceived), "sft size")
    for name in names:
        if not name.startswith("predictions_"):
            continue
        preds = {p["id"]: p for p in jsonl(name)}
        expect(set(preds) == set(samples), f"{name} ids")
        for i, s in samples.items():
            p = preds[i]
            if name == "predictions_direct.jsonl":
                ok = p["prediction"] == s.answer
            elif name == "predictions_ambig_aware.jsonl":
                ok = p["prediction"] == s.ambig_aware
            elif name == "predictions_self_ask.jsonl":
                ok = p["answer"] == s.answer and p["verdict"] == s.self_ask_verdict
            else:
                ok = p["greedy"] == s.answer and (
                    s.e_class == "spread" or p["consistency"] == 1.0)
            expect(ok, f"{name} sample {i}")


def check_rep(ref: dict[str, bytes], workdir: Path, permanent_ids: list[str]) -> None:
    """Checkpoints equal the reference run's byte for byte."""
    for name, expected in ref.items():
        got = (workdir / name).read_bytes()
        if name == "assess.jsonl" and permanent_ids:
            lines = got.decode().splitlines(keepends=True)
            failed = [json.loads(x) for x in lines]
            errored = [o["id"] for o in failed if "error" in o]
            if errored != permanent_ids:
                raise GateError(f"errored ids {errored} != scheduled {permanent_ids}")
            got = "".join(x for x, o in zip(lines, failed) if "error" not in o).encode()
        if got != expected:
            raise GateError(f"{name} differs from the toy reference")


# -- metrics ------------------------------------------------------------------


def measure_setup(config: Path) -> float:
    """Time for a fresh interpreter to import ambigkit.cli, then run
    load_config, make_backend and load_templates for ``config``."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t0 = time.perf_counter()\n"
        "import ambigkit.cli\n"
        "from ambigkit.config import load_config, make_backend\n"
        "from ambigkit.corpus import load_templates\n"
        "config = load_config(sys.argv[2])\n"
        "make_backend(config.backend)\n"
        "load_templates(config.template_dir)\n"
        "print(time.perf_counter() - t0)\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(SRC), str(config)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_reps(run_one, seconds: float, min_reps: int) -> list:
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        reps.append(run_one(len(reps)))
    return reps


def toy_reference(cli, w: world.World, work: Path, spec: Workload, seed: int,
                  permanent_ids: list[str], tracer=None) -> None:
    """Run the chain on the toy backend into ``work/ref`` and check it against
    the generator's plan. In ``remote-flaky`` the samples refused for good
    are left out of the reference dataset."""
    dataset = "dataset.jsonl"
    if permanent_ids:
        dataset = "dataset_ref.jsonl"
        w.write_dataset(work / dataset, [s for s in w.samples if s.id not in permanent_ids])
    config = work / "config_toy.json"
    write_config(config, {"kind": "toy", "fixture": "world.yaml", "top_k": None,
                          "parallelism": 2}, dataset, seed)
    run_chain(cli, config, work / "ref", spec.commands, tracer)
    check_reference(w, work / "ref", spec.commands, set(permanent_ids))


def prepare(cli, workload: str, seed: int, work: Path, trace: bool) -> dict:
    """Write the inputs to ``work`` and the checked toy reference run to
    ``work/ref``. Returns the permanently refused ids and, when ``trace``,
    the ``toy.*`` metrics of the reference run."""
    spec = WORKLOADS[workload]
    w = world.build(seed, spec.n)
    permanent_ids: list[str] = []
    faults = None
    if spec.faults:
        permanent_ids, faults = fault_schedule(w, seed)
    w.write(work)
    if faults is not None:
        (work / "faults.json").write_text(json.dumps(faults))
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        toy_reference(cli, w, work, spec, seed, permanent_ids, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    toy = {}
    if tracer is not None:
        commands = [command_name(c) for c in spec.commands]
        toy = {k: v for k, v in spans.per_layer(tracer, 1, commands).items()
               if k.startswith("toy.")}
    return {"permanent_ids": permanent_ids, "toy": toy}


def prepare_in_child(args, work: Path) -> dict:
    """Run ``prepare`` in a child process, so that neither the generator nor
    the toy reference run counts toward this process's ``peak_rss_mb``."""
    done = subprocess.run(
        [sys.executable, __file__, "--prepare", str(work), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise GateError(f"input generation or toy reference failed:\n{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(args) -> dict:
    # All traffic is on loopback; keep any proxy settings away from it.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    cli = import_program()
    spec = WORKLOADS[args.workload]
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    stub = None
    try:
        prepared = prepare_in_child(args, work)
        permanent_ids = prepared["permanent_ids"]
        ref = {name: (work / "ref" / name).read_bytes()
               for name in checkpoint_names(spec.commands)}
        stub = StubProcess(work / "world.json", work / "faults.json" if spec.faults else None)
        config = work / "config_remote.json"
        write_config(config, {"kind": "remote", "endpoint": stub.endpoint, "model": "stub",
                              "top_k": 20, "parallelism": 2}, "dataset.jsonl", args.seed)

        def one(index: int, tracer=None) -> dict:
            stub.reset()
            rep_dir = work / f"rep{index}"
            wall = run_chain(cli, config, rep_dir, spec.commands, tracer)
            check_rep(ref, rep_dir, permanent_ids)
            attempted, errored = attempted_samples(rep_dir, spec.commands)
            shutil.rmtree(rep_dir)
            print(f"rep {index}: {wall:.3f} s", file=sys.stderr)
            return {"wall": wall, "attempted": attempted, "errored": errored,
                    "stats": stub.stats()}

        one(-1)  # warm-up: fills the stub's memo and the program's lazy imports
        if args.trace:
            reps, metrics = traced_run(one, args.seconds, spec, prepared["toy"])
            metrics["config.fixture_bytes"] = (work / "world.yaml").stat().st_size
            metrics = {k: (v, per_layer_unit(k)) for k, v in metrics.items()}
        else:
            setup_times = [measure_setup(config)]

            def rep_then_setup(index: int) -> dict:
                rep = one(index)
                setup_times.extend(measure_setup(config) for _ in range(SETUP_SPAWNS_PER_REP))
                return rep

            reps = timed_reps(rep_then_setup, args.seconds, MIN_REPS)
            setup_s = statistics.median(setup_times)
            stats = reps[len(reps) // 2]["stats"]
            attempted, errored = reps[0]["attempted"], reps[0]["errored"]
            metrics = {
                "samples_per_s": (statistics.median(spec.n / r["wall"] for r in reps), "1/s"),
                "setup_s": (setup_s, "s"),
                "backend_calls_per_sample": (stats["requests"] / spec.n, "count"),
                "backend_tokens_per_sample": (
                    (stats["tokens_generated"] + stats["tokens_scored"]) / spec.n, "count"),
                "completed_share": ((attempted - errored) / attempted, "ratio"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        return {
            "correct": True,
            "attempted": len(spec.commands) * len(reps),
            "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def traced_run(one, seconds: float, spec: Workload, toy: dict) -> tuple[list, dict]:
    """Half the time untraced, half traced; per-layer metrics per command
    sequence. The toy layer's metrics, ``toy``, come from the traced toy
    reference run."""
    untraced = timed_reps(one, seconds / 2, MIN_REPS_TRACED)
    tracer = spans.Tracer()
    tracer.install()
    try:
        reps = timed_reps(lambda i: one(i, tracer), seconds / 2, MIN_REPS_TRACED)
    finally:
        tracer.restore()
    commands = [command_name(c) for c in spec.commands]
    layer = spans.per_layer(tracer, len(reps), commands)
    layer.update(toy)
    for name in all_command_names():
        layer.setdefault(f"cli.{name}.wall_s", 0.0)
    stub_stats = [r["stats"] for r in reps]
    for key in ("requests", "tokens_generated", "tokens_scored", "response_bytes"):
        layer[f"stub.{key}"] = sum(s[key] for s in stub_stats) / len(reps)
    layer["stub.repeat_share"] = (
        sum(s["repeats"] for s in stub_stats) / sum(s["requests"] for s in stub_stats))
    traced_rate = statistics.median(spec.n / r["wall"] for r in reps)
    plain_rate = statistics.median(spec.n / r["wall"] for r in untraced)
    layer["trace.samples_per_s"] = traced_rate
    layer["trace.untraced_samples_per_s"] = plain_rate
    layer["trace.overhead_share"] = 1 - traced_rate / plain_rate
    return reps, layer


def all_command_names() -> list[str]:
    names = []
    for spec in WORKLOADS.values():
        for command in spec.commands:
            if command_name(command) not in names:
                names.append(command_name(command))
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith("samples_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if "_ms." in name:
        return "ms"
    if name.endswith(("share",)):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR", type=Path, default=None,
                        help="only write the inputs and the checked toy reference run "
                             "to DIR (the run does this in a child process)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the stub and the scratch directory are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.prepare is not None:
            result = prepare(import_program(), args.workload, args.seed, args.prepare,
                             bool(args.trace))
        else:
            result = run(args)
    except GateError as exc:
        print(f"benchmark: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
