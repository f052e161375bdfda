"""Command-line entry point.

Commands::

    assess      stage 1: answer every sample, split correct/incorrect
    detect      stage 2: self-disambiguate the incorrect split, measure gain
    label       stage 3: select + balance, attach clarification labels
    emit        stage 4 data: export the balanced (prompt, completion) file
    verify      re-check an exported training file
    eval        run a baseline strategy, score a predictions file, or
                compare two prediction files (regression rate)
    sweep       threshold sweeps: epsilon -> pool size, or sample-rep
                threshold -> F1 scores
    ambiguate   build ambiguated questions from a source dataset

Global flags (before the command): --config, --seed, --epsilon, --backend,
--out. Exit codes: 0 ok, 2 configuration error, 3 backend error,
4 data-integrity error. Every command runs through ``_run_stage``: it prints
the effective seed and writes a manifest into the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .backend import Backend, GenerationParams
from .config import RunConfig, config_hash, load_config, make_backend
from .corpus import (
    PromptTemplate,
    QASample,
    ambiguate,
    load_dataset,
    load_templates,
    read_allowlist,
    template_fingerprints,
)
from .errors import BackendError, ConfigurationError, DataIntegrityError
from .evalkit import (
    OutcomeCounts,
    PredictionRecord,
    evaluate,
    f1_ambig,
    f1_unambig,
    judge_sample_rep,
    mcr,
    read_predictions,
    report_obj,
    run_ambig_aware,
    run_direct,
    run_sample_rep,
    run_self_ask,
    write_predictions,
)
from .jsonio import (
    output_file,
    read_json_object,
    record_at,
    record_obj,
    typed_field,
    write_json_atomic,
    write_jsonl_atomic,
    write_text_atomic,
)
from .pipeline import (
    StageOnePartition,
    label_records,
    perceived_ambiguous,
    read_labels,
    read_partition,
    read_records,
    read_selection,
    select_and_balance,
    stage1_assess,
    stage2_disambiguate,
    sweep_epsilon,
    write_labels,
    write_partition,
    write_records,
    write_selection,
)
from .sft import emit as sft_emit
from .sft import verify as sft_verify

DEFAULT_EPSILON_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_THRESHOLD_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_INTEGRITY = 4


class _Paths:
    def __init__(self, config: RunConfig):
        workdir = Path(config.workdir)
        self.workdir = workdir
        self.assess = workdir / "assess.jsonl"
        self.records = workdir / "records.jsonl"
        self.labels = workdir / "labels.jsonl"
        self.selection = workdir / "selection.json"
        self.sft = workdir / "sft.jsonl"
        self.journal = workdir / "backend_journal.jsonl"

    def require(self, path: Path, producer: str) -> Path:
        if not path.is_file():
            raise ConfigurationError(
                f"missing checkpoint {path}; run `ambigkit {producer}` first"
            )
        return path


def _start(args) -> tuple[RunConfig, _Paths, dict[str, PromptTemplate]]:
    """Setup of every command: the effective config, the seed line, the
    checkpoint paths and the command's one template load."""
    # The flags that set a config value, each under the setting's name.
    config = load_config(args.config, {key: getattr(args, key, None) for key in (
        "seed", "epsilon", "workdir", "backend", "label_kind")})
    print(f"effective seed: {config.seed}")
    return config, _Paths(config), load_templates(config.template_dir)


def _backend(config: RunConfig, paths: _Paths) -> contextlib.closing[Backend]:
    """The command's backend, closed on leaving the ``with``. A remote one
    journals its deterministic requests in the workdir, so no stage or rerun
    sends one twice; the toy backend is the in-process oracle and ignores the
    journal."""
    return contextlib.closing(make_backend(config.backend, journal=paths.journal))


def _greedy_params(config: RunConfig) -> GenerationParams:
    # Every reply is cut at its first newline (``corpus.trim_continuation``),
    # so the server may stop there instead of decoding the next few-shot block.
    return GenerationParams(max_tokens=config.max_tokens, temperature=0.0,
                            stop_sequences=("\n",))


def _read_partition(config: RunConfig, paths: _Paths) -> StageOnePartition:
    samples_by_id = {s.id: s for s in load_dataset(config.dataset)}
    return read_partition(paths.require(paths.assess, "assess"), samples_by_id)


class _Stage(NamedTuple):
    """What a stage body hands back to ``_run_stage``: each output path with
    the function that writes it there, the manifest's summary fields, the
    line to print, and the exit code."""

    writes: list[tuple[Path, Callable[[Path], object]]]
    summary: dict
    message: str
    exit_code: int = EXIT_OK


def _write_manifest(config: RunConfig, paths: _Paths, templates: dict[str, PromptTemplate],
                    command: str, stage: _Stage, backend: Backend | None) -> None:
    backend_entry = {"kind": config.backend.kind}
    journal = getattr(backend, "journal", None)
    if journal is not None:
        backend_entry["journal"] = {"hits": journal.hits, "misses": journal.misses}
    manifest = {
        "command": command,
        "config_hash": config_hash(config),
        "seed": config.seed,
        "epsilon": config.epsilon,
        "truncation_mode": config.truncation_mode.value,
        "strategy": config.strategy.value,
        "label_kind": config.label_kind.value,
        "backend": backend_entry,
        "dataset": config.dataset,
        "template_hashes": template_fingerprints(templates),
        "outputs": [str(path) for path, _ in stage.writes],
        **stage.summary,
    }
    write_json_atomic(paths.workdir / f"manifest_{command}.json", manifest)


def _run_stage(args, command: str, body, *, uses_backend: bool = True) -> int:
    """Run a command. ``body(args, config, paths, templates, backend)`` reads
    the inputs and does the work. Around it, this makes the workdir, opens and
    closes the backend (none when the body does not use one), refuses an
    output that cannot be written before writing anything, then writes the
    outputs, ``manifest_<command>.json`` and the body's line. A body that
    raises (a total outage included, see ``evalkit.run_each``) writes
    nothing."""
    config, paths, templates = _start(args)
    with output_file(paths.workdir):
        paths.workdir.mkdir(parents=True, exist_ok=True)
    with (_backend(config, paths) if uses_backend else contextlib.nullcontext()) as backend:
        stage = body(args, config, paths, templates, backend)
    for path, _ in stage.writes:
        with output_file(path):
            path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            raise ConfigurationError(f"cannot write {path}: Is a directory")
    for path, write in stage.writes:
        write(path)
    _write_manifest(config, paths, templates, command, stage, backend)
    print(stage.message)
    return stage.exit_code


# -- commands ------------------------------------------------------------------


def _assess(args, config, paths, templates, backend) -> _Stage:
    samples = load_dataset(config.dataset)
    partition = stage1_assess(
        samples, backend, templates, _greedy_params(config),
        mode=config.truncation_mode, rouge_threshold=config.rouge_threshold,
    )
    correct, incorrect = len(partition.correct), len(partition.incorrect)
    return _Stage(
        [(paths.assess, lambda path: write_partition(partition, path))],
        {"correct": correct, "incorrect": incorrect, "errored": len(partition.errored)},
        f"assessed {len(samples)} samples: {correct} correct, "
        f"{incorrect} incorrect, {len(partition.errored)} errored",
    )


def _detect(args, config, paths, templates, backend) -> _Stage:
    partition = _read_partition(config, paths)
    if not partition.trainable:  # select_and_balance's refusal, foretold
        print(f"warning: {paths.assess} holds no correct sample with a gold answer, so "
              "`label` will refuse this run; only `sweep` can use its records",
              file=sys.stderr)
    records, errored = stage2_disambiguate(
        [partition.samples[a.sample_id] for a in partition.incorrect], backend, templates,
        _greedy_params(config), mode=config.truncation_mode,
    )
    ambiguous = len(perceived_ambiguous(records, config.epsilon))
    return _Stage(
        [(paths.records, lambda path: write_records(records, path, config.epsilon))],
        {"records": len(records), "perceived_ambiguous": ambiguous,
         "errored": len(errored)},
        f"disambiguated {len(records)} samples at epsilon={config.epsilon}: "
        f"{ambiguous} perceived ambiguous, {len(errored)} errored",
    )


def _label(args, config, paths, templates, backend) -> _Stage:
    partition = _read_partition(config, paths)
    records = read_records(paths.require(paths.records, "detect"))
    selection = select_and_balance(
        partition, records, config.strategy, config.epsilon, config.seed
    )
    labels = label_records(
        selection.ambiguous, config.label_kind, backend, templates,
        _greedy_params(config), master_seed=config.seed,
    )
    return _Stage(
        [(paths.labels, lambda path: write_labels(labels, path)),
         (paths.selection, lambda path: write_selection(selection, path))],
        {"labeled": len(labels)},
        f"selected {len(selection.correct)} correct + "
        f"{len(selection.ambiguous)} ambiguous ({config.strategy.value}); "
        f"labeled with kind={config.label_kind.value}",
    )


def _emit(args, config, paths, templates, backend) -> _Stage:
    partition = _read_partition(config, paths)
    records = read_records(paths.require(paths.records, "detect"))
    labels = {
        label.sample_id: label
        for label in read_labels(paths.require(paths.labels, "label"))
    }
    correct, ambiguous = read_selection(
        paths.require(paths.selection, "label"), partition, records
    )
    # sft_emit writes one record per selected sample, or refuses.
    count = len(correct) + len(ambiguous)
    return _Stage(
        [(paths.sft, lambda path: sft_emit(
            correct, ambiguous, labels, templates["direct"], path, master_seed=config.seed,
        ))],
        {"records": count},
        f"emitted {count} training records to {paths.sft}",
    )


def _verify(args, config, paths, templates, backend) -> _Stage:
    target = Path(args.path) if args.path is not None else paths.require(paths.sft, "emit")
    report = sft_verify(target, answer_cue=templates["direct"].answer_cue)
    for message in report.failures:
        print(f"  {message}", file=sys.stderr)
    return _Stage([], {"path": str(target), **report.counts()},
                  f"verify {target}: {report.summary()}",
                  exit_code=EXIT_OK if report.ok else EXIT_INTEGRITY)


# Each eval strategy's predictions, from the config and the arguments every
# run_* function takes. The lambdas look the run functions up when called,
# so they stay patchable on this module.
_STRATEGIES = {
    "direct": lambda config, *run: run_direct(*run),
    "ambig_aware": lambda config, *run: run_ambig_aware(*run),
    "sample_rep": lambda config, *run: run_sample_rep(
        *run, config.sample_rep, master_seed=config.seed),
    "self_ask": lambda config, *run: run_self_ask(*run, master_seed=config.seed),
}


def _eval_stage(args, config: RunConfig, paths: _Paths, samples: list[QASample],
                predictions: list[PredictionRecord], name: str, writes=(),
                source: Path | None = None) -> _Stage:
    """``writes``, then the report on ``predictions`` (of file ``source``), and its line."""
    report = report_obj(evaluate(samples, predictions, config.rouge_threshold, source), {
        "epsilon": config.epsilon, "truncation_mode": config.truncation_mode.value,
        "rouge_threshold": config.rouge_threshold, "seed": config.seed, "strategy": name,
    })
    out = Path(args.report or paths.workdir / f"eval_{name}.json")
    left_out = report["counts"]["errored"]
    note = f"  {left_out} errored, left out of F1" if left_out else ""
    return _Stage(
        [*writes, (out, lambda path: write_json_atomic(path, report))],
        {"predictions": len(predictions), "errored": left_out},
        f"F1_u: {report['f1_u']:.4f}  F1_a: {report['f1_a']:.4f}{note}  ({out})",
    )


def _eval_strategy(name, args, config, paths, templates, backend) -> _Stage:
    samples = load_dataset(config.dataset)
    predictions = _STRATEGIES[name](config, samples, backend, templates, _greedy_params(config))
    return _eval_stage(args, config, paths, samples, predictions, name, [
        (paths.workdir / f"predictions_{name}.jsonl",
         lambda path: write_predictions(predictions, path))])


def _eval_predictions(args, config, paths, templates, backend) -> _Stage:
    return _eval_stage(args, config, paths, load_dataset(config.dataset),
                       read_predictions(args.predictions), "predictions",
                       source=args.predictions)


def _eval_compare(args, config, paths, templates, backend) -> _Stage:
    samples = load_dataset(config.dataset)
    before, after = ({row.sample_id: row.category for row in evaluate(
        samples, read_predictions(p), config.rouge_threshold, p)} for p in args.compare)
    regression = asdict(mcr(before, after))
    out = Path(args.report or paths.workdir / "eval_compare.json")
    rate = "n/a" if regression["mcr"] is None else f"{regression['mcr']:.4f}"
    return _Stage([(out, lambda path: write_json_atomic(path, regression))],
                  regression, f"MCR: {rate} ({out})")


def _aggregate_reports(report_paths: list[Path]) -> dict:
    import statistics

    values: dict[str, list[float]] = {"f1_u": [], "f1_a": []}
    for path in report_paths:
        obj = read_json_object(path)
        with record_at(path):
            for key, vals in values.items():
                vals.append(typed_field(obj, key, float))
                if not 0 <= vals[-1] <= 1:
                    raise ValueError(f"field {key!r} must lie in [0, 1], got {vals[-1]}")
    # Population standard deviation, defined for a single run as 0.
    return {"n": len(report_paths),
            **{key: {"mean": statistics.fmean(vals), "stddev": statistics.pstdev(vals)}
               for key, vals in values.items()}}


def _eval_aggregate(args, config, paths, templates, backend) -> _Stage:
    summary = _aggregate_reports([Path(p) for p in args.aggregate])
    out = Path(args.report or paths.workdir / "eval_aggregate.json")
    return _Stage(
        [(out, lambda path: write_json_atomic(path, summary))],
        {"reports": len(args.aggregate)},
        f"aggregated {summary['n']} reports: " + "".join(
            f"{label} {summary[key]['mean']:.4f} ({summary[key]['stddev']:.4f})  "
            for key, label in (("f1_u", "F1_u"), ("f1_a", "F1_a"))) + f"({out})",
    )


def cmd_eval(args) -> int:
    # The modes that score recorded results need no backend.
    for mode, body in (("predictions", _eval_predictions), ("compare", _eval_compare),
                       ("aggregate", _eval_aggregate)):
        if getattr(args, mode) is not None:
            return _run_stage(args, f"eval_{mode}", body, uses_backend=False)
    name = args.strategy or "direct"
    return _run_stage(args, f"eval_{name}", partial(_eval_strategy, name))


def _grid(text: str | None, default: tuple[float, ...], what: str) -> list[float]:
    """The comma-separated ``what`` values in ``text``, or ``default``."""
    if text is None:
        return list(default)
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad {what} list: {text!r}") from exc
    if not values:
        raise ConfigurationError(f"empty {what} list")
    if not all(map(math.isfinite, values)):
        raise ConfigurationError(f"{what} values must be finite, got {text!r}")
    return values


def _sweep_stage(args, default_out: Path, rows: list, summary: dict) -> _Stage:
    """Write ``rows`` as CSV to ``--out-csv`` or ``default_out``; print them."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    text = buffer.getvalue()
    out = Path(args.out_csv or default_out)
    return _Stage([(out, lambda path: write_text_atomic(path, text))],
                  {**summary, "points": len(rows) - 1},
                  text.rstrip("\n") + f"\nwrote {out}")


def _sweep_epsilon(args, config, paths, templates, backend) -> _Stage:
    # A grid given for the other sweep is an error, not something to ignore.
    if args.thresholds is not None:
        raise ConfigurationError("--thresholds applies only with --sample-rep")
    epsilons = _grid(args.epsilons, DEFAULT_EPSILON_GRID, "epsilon")
    records = read_records(paths.require(paths.records, "detect"))
    return _sweep_stage(args, paths.workdir / "epsilon_sweep.csv",
                        [["epsilon", "pool_size"], *sweep_epsilon(records, epsilons)],
                        {"records": len(records)})


def _sweep_sample_rep(args, config, paths, templates, backend) -> _Stage:
    if args.epsilons is not None:
        raise ConfigurationError("--epsilons applies only without --sample-rep")
    thresholds = _grid(args.thresholds, DEFAULT_THRESHOLD_GRID, "threshold")
    samples = load_dataset(config.dataset)
    recorded = read_predictions(args.sample_rep)
    rows = [["threshold", "f1_u", "f1_a"]]
    for threshold in thresholds:
        predictions = [judge_sample_rep(p, threshold, config.seed) for p in recorded]
        counts = OutcomeCounts.of(
            evaluate(samples, predictions, config.rouge_threshold, args.sample_rep))
        rows.append([threshold, f"{f1_unambig(counts):.6f}", f"{f1_ambig(counts):.6f}"])
    return _sweep_stage(args, paths.workdir / "sample_rep_sweep.csv", rows,
                        {"predictions": len(recorded)})


def _ambiguate(args, config, paths, templates, backend) -> _Stage:
    # The allowlist is read before the first backend call, so a bad one
    # costs none.
    allowed = read_allowlist(args.allowlist) if args.allowlist is not None else None
    accepted, rejects = ambiguate(
        load_dataset(config.dataset), backend, templates, _greedy_params(config)
    )
    if allowed is not None:
        accepted = [s for s in accepted if s.id in allowed]
    out = paths.workdir / "ambiguated.jsonl"
    return _Stage(
        [(out, lambda path: write_jsonl_atomic(path, map(record_obj, accepted))),
         (paths.workdir / "ambiguate_rejects.jsonl",
          lambda path: write_jsonl_atomic(path, rejects))],
        {"accepted": len(accepted), "rejected": len(rejects)},
        f"ambiguated {len(accepted)} samples ({len(rejects)} rejected) -> {out}",
    )


# -- parser ----------------------------------------------------------------------


def _given(text: str) -> str:
    """A flag's value; an empty one is refused rather than read as absent."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _listed(grid: tuple[float, ...]) -> str:
    return ",".join(map(str, grid))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambigkit",
        description=(
            "Measure a model's perceived ambiguity, build clarification-"
            "labeled training data, and evaluate ambiguity handling."
        ),
    )
    parser.add_argument("--config", type=_given, default="ambigkit.json",
                        help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="override the information-gain threshold")
    parser.add_argument("--backend", type=_given, default=None,
                        help="override the backend: toy:<fixture> or remote:<endpoint>")
    parser.add_argument("--out", dest="workdir", metavar="OUT", type=_given, default=None,
                        help="override the working/output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("assess", help="stage 1: split the dataset by current correctness")
    sub.add_parser("detect", help="stage 2: measure perceived ambiguity of incorrect samples")

    label = sub.add_parser("label", help="stage 3: select, balance, and label")
    label.add_argument("--kind", dest="label_kind", choices=["fixed", "generated"],
                       default=None, help="override the clarification label kind")

    sub.add_parser("emit", help="export the balanced training JSONL")

    verify = sub.add_parser("verify", help="re-check an exported training file")
    verify.add_argument("path", nargs="?", type=_given, default=None,
                        help="file to verify (default: workdir/sft.jsonl)")

    ev = sub.add_parser("eval", help="run a baseline or score predictions")
    ev_mode = ev.add_mutually_exclusive_group()
    ev_mode.add_argument("--strategy", choices=list(_STRATEGIES), default=None,
                         help="inference-only baseline to run (default: direct)")
    ev_mode.add_argument("--predictions", type=_given, default=None,
                         help="score an external predictions JSONL instead")
    ev_mode.add_argument("--compare", nargs=2, type=_given, metavar=("BEFORE", "AFTER"),
                         help="two prediction files; reports the regression rate")
    ev_mode.add_argument("--aggregate", nargs="+", type=_given, metavar="REPORT", default=None,
                         help="mean/stddev of F1 scores over report files")
    ev.add_argument("--report", type=_given, default=None, help="report output path")

    sweep = sub.add_parser("sweep", help="threshold sweeps as CSV")
    sweep.add_argument("--epsilons", type=_given, default=None,
                       help="comma-separated epsilon grid "
                            f"(default {_listed(DEFAULT_EPSILON_GRID)})")
    sweep.add_argument("--sample-rep", dest="sample_rep", type=_given, default=None,
                       help="sweep sample-rep thresholds over this predictions file")
    sweep.add_argument("--thresholds", type=_given, default=None,
                       help="comma-separated sample-rep thresholds "
                            f"(default {_listed(DEFAULT_THRESHOLD_GRID)})")
    sweep.add_argument("--out-csv", dest="out_csv", type=_given, default=None,
                       help="CSV output path")

    amb = sub.add_parser("ambiguate", help="construct ambiguated questions")
    amb.add_argument("--allowlist", type=_given, default=None,
                     help="keep only ids listed in this file (one per line)")
    return parser


_HANDLERS = {
    "assess": partial(_run_stage, command="assess", body=_assess),
    "detect": partial(_run_stage, command="detect", body=_detect),
    "label": partial(_run_stage, command="label", body=_label),
    "emit": partial(_run_stage, command="emit", body=_emit, uses_backend=False),
    "verify": partial(_run_stage, command="verify", body=_verify, uses_backend=False),
    "eval": cmd_eval,
    "sweep": lambda args: _run_stage(args, *(
        ("sweep_epsilon", _sweep_epsilon) if args.sample_rep is None
        else ("sweep_sample_rep", _sweep_sample_rep)), uses_backend=False),
    "ambiguate": partial(_run_stage, command="ambiguate", body=_ambiguate),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except DataIntegrityError as exc:
        print(f"data integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
