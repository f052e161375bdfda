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
4 data-integrity error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .backend import Backend, GenerationParams
from .config import RunConfig, apply_overrides, config_hash, load_config, make_backend
from .corpus import (
    PromptTemplate,
    QASample,
    ambiguate,
    load_dataset,
    load_templates,
    read_allowlist,
    sample_to_obj,
    template_fingerprints,
)
from .entropy import Verdict
from .errors import (
    AmbigkitError,
    BackendError,
    ConfigurationError,
    DataIntegrityError,
)
from .evalkit import (
    PredictionRecord,
    evaluate,
    judge_sample_rep,
    mcr,
    read_predictions,
    run_ambig_aware,
    run_direct,
    run_sample_rep,
    run_self_ask,
    write_predictions,
)
from .jsonio import (
    read_json_object,
    record_at,
    typed_field,
    write_json_atomic,
    write_jsonl_atomic,
    write_text_atomic,
)
from .pipeline import (
    LabelKind,
    StageOnePartition,
    label_records,
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

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_INTEGRITY = 4


def _fail_if_total_outage(processed: int, errored: Sequence[tuple[str, str]]) -> None:
    # Per-sample backend failures are tolerated and excluded; a run where
    # nothing succeeded is a backend failure, not a result.
    if errored and processed == 0:
        first_error = errored[0][1]
        raise BackendError(
            f"every backend call failed ({len(errored)} samples); first error: "
            f"{first_error}"
        )


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


def _load_run(args) -> tuple[RunConfig, _Paths]:
    config = apply_overrides(
        load_config(args.config),
        seed=args.seed, epsilon=args.epsilon, backend=args.backend, out=args.out,
    )
    if getattr(args, "kind", None):  # label --kind
        config = replace(config, label_kind=LabelKind(args.kind))
    return config, _Paths(config)


def _start(args) -> tuple[RunConfig, _Paths, dict[str, PromptTemplate]]:
    """Setup of every command that runs a stage or scores predictions: the
    effective config, the seed line, the checkpoint paths and the command's
    one template load."""
    config, paths = _load_run(args)
    print(f"effective seed: {config.seed}")
    return config, paths, load_templates(config.template_dir)


def _backend(config: RunConfig, paths: _Paths) -> contextlib.closing[Backend]:
    """The command's backend, closed on leaving the ``with``. A remote one
    journals its deterministic requests in the workdir, so no stage or rerun
    sends one twice; the toy backend is the in-process oracle and ignores the
    journal."""
    return contextlib.closing(make_backend(config.backend, journal=paths.journal))


def _greedy_params(config: RunConfig) -> GenerationParams:
    return GenerationParams(max_tokens=config.max_tokens, temperature=0.0)


def _read_partition(config: RunConfig, paths: _Paths) -> StageOnePartition:
    samples_by_id = {s.id: s for s in load_dataset(config.dataset)}
    return read_partition(paths.require(paths.assess, "assess"), samples_by_id)


def _write_manifest(config: RunConfig, paths: _Paths,
                    templates: dict[str, PromptTemplate], command: str,
                    outputs: list[str], extra: dict,
                    backend: Backend | None) -> None:
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
        "outputs": outputs,
        **extra,
    }
    write_json_atomic(paths.workdir / f"manifest_{command}.json", manifest)


class _Stage(NamedTuple):
    """What a stage body hands back to ``_run_stage``: each output path with
    the function that writes it there, the manifest's summary fields, the
    line to print, and how many samples succeeded and which errored."""

    writes: list[tuple[Path, Callable[[Path], object]]]
    summary: dict
    message: str
    processed: int = 0
    errored: Sequence[tuple[str, str]] = ()


def _run_stage(args, command: str, body, *, uses_backend: bool = True) -> int:
    """Run a stage command. ``body(args, config, paths, templates, backend)``
    reads the inputs and runs the stage. Around it, this opens and closes the
    backend (none when the stage does not use one), refuses a total outage
    before anything is written, then writes the outputs,
    ``manifest_<command>.json`` and the body's line."""
    config, paths, templates = _start(args)
    with (_backend(config, paths) if uses_backend else contextlib.nullcontext()) as backend:
        stage = body(args, config, paths, templates, backend)
    _fail_if_total_outage(stage.processed, stage.errored)
    for path, write in stage.writes:
        write(path)
    _write_manifest(config, paths, templates, command,
                    [str(path) for path, _ in stage.writes], stage.summary, backend)
    print(stage.message)
    return EXIT_OK


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
        correct + incorrect, partition.errored,
    )


def _detect(args, config, paths, templates, backend) -> _Stage:
    partition = _read_partition(config, paths)
    records, errored = stage2_disambiguate(
        [a.sample for a in partition.incorrect], backend, templates,
        _greedy_params(config), mode=config.truncation_mode, epsilon=config.epsilon,
    )
    ambiguous = sum(1 for r in records if r.verdict is Verdict.PERCEIVED_AMBIGUOUS)
    return _Stage(
        [(paths.records, lambda path: write_records(records, path))],
        {"records": len(records), "perceived_ambiguous": ambiguous,
         "errored": len(errored)},
        f"disambiguated {len(records)} samples at epsilon={config.epsilon}: "
        f"{ambiguous} perceived ambiguous, {len(errored)} errored",
        len(records), errored,
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


def cmd_verify(args) -> int:
    config, paths = _load_run(args)
    target = Path(args.path) if args.path else paths.require(paths.sft, "emit")
    templates = load_templates(config.template_dir)
    report = sft_verify(target, answer_cue=templates["direct"].answer_cue)
    print(f"verify {target}: {report.summary()}")
    for line_number, message in report.failures:
        print(f"  line {line_number}: {message}" if line_number else f"  {message}",
              file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_INTEGRITY


# Each eval strategy's predictions, from the config and the arguments every
# run_* function takes. The lambdas look the run functions up when called,
# so they stay patchable on this module.
_STRATEGIES = {
    "direct": lambda config, *run: run_direct(*run),
    "ambig_aware": lambda config, *run: run_ambig_aware(*run),
    "sample_rep": lambda config, *run: run_sample_rep(
        *run,
        threshold=config.sample_rep.threshold,
        num_samples=config.sample_rep.num_samples,
        temperature=config.sample_rep.temperature,
        master_seed=config.seed,
    ),
    "self_ask": lambda config, *run: run_self_ask(*run, master_seed=config.seed),
}


def _eval_report(args, config: RunConfig, paths: _Paths, samples: list[QASample],
                 predictions: list[PredictionRecord], name: str) -> tuple[Path, dict, str]:
    """Where the report on ``predictions`` goes, its contents and its line."""
    report = evaluate(samples, predictions, config.rouge_threshold)
    out = Path(args.report) if args.report else paths.workdir / f"eval_{name}.json"
    report_obj = report.to_obj({
        "epsilon": config.epsilon,
        "truncation_mode": config.truncation_mode.value,
        "rouge_threshold": config.rouge_threshold,
        "seed": config.seed,
        "strategy": name,
    })
    return out, report_obj, f"F1_u: {report.f1_u:.4f}  F1_a: {report.f1_a:.4f}  ({out})"


def _eval_strategy(name, args, config, paths, templates, backend) -> _Stage:
    samples = load_dataset(config.dataset)
    predictions = _STRATEGIES[name](config, samples, backend, templates, _greedy_params(config))
    errored = [(p.sample_id, p.error) for p in predictions if p.error is not None]
    out, report_obj, message = _eval_report(args, config, paths, samples, predictions, name)
    return _Stage(
        [(paths.workdir / f"predictions_{name}.jsonl",
          lambda path: write_predictions(predictions, path)),
         (out, lambda path: write_json_atomic(path, report_obj))],
        {"predictions": len(predictions), "errored": len(errored)},
        message, len(predictions) - len(errored), errored,
    )


def _aggregate_reports(report_paths: list[Path]) -> dict:
    import statistics

    values: dict[str, list[float]] = {"f1_u": [], "f1_a": []}
    for path in report_paths:
        obj = read_json_object(path)
        with record_at(path):
            for key, vals in values.items():
                vals.append(typed_field(obj, key, float))
    # Population standard deviation, defined for a single run as 0.
    return {
        "n": len(report_paths),
        **{
            key: {"mean": statistics.fmean(vals),
                  "stddev": statistics.pstdev(vals)}
            for key, vals in values.items()
        },
    }


def cmd_eval(args) -> int:
    if args.aggregate:
        config, paths = _load_run(args)
        summary = _aggregate_reports([Path(p) for p in args.aggregate])
        out = Path(args.report) if args.report else paths.workdir / "eval_aggregate.json"
        write_json_atomic(out, summary)
        print(
            f"aggregated {summary['n']} reports: "
            f"F1_u {summary['f1_u']['mean']:.4f} ({summary['f1_u']['stddev']:.4f})  "
            f"F1_a {summary['f1_a']['mean']:.4f} ({summary['f1_a']['stddev']:.4f})  "
            f"({out})"
        )
        return EXIT_OK
    if not (args.compare or args.predictions):
        name = args.strategy or "direct"
        return _run_stage(args, f"eval_{name}", partial(_eval_strategy, name))
    config, paths, templates = _start(args)
    samples = load_dataset(config.dataset)
    if args.compare:
        before, after = (
            {o.sample_id: o.category
             for o in evaluate(samples, read_predictions(Path(p)),
                               config.rouge_threshold).per_sample}
            for p in args.compare
        )
        regression = mcr(before, after)
        out = Path(args.report) if args.report else paths.workdir / "eval_compare.json"
        write_json_atomic(out, asdict(regression))
        rate = regression.mcr
        print(f"MCR: {'n/a' if rate is None else f'{rate:.4f}'} ({out})")
        return EXIT_OK
    out, report_obj, message = _eval_report(
        args, config, paths, samples, read_predictions(Path(args.predictions)), "predictions"
    )
    write_json_atomic(out, report_obj)
    print(message)
    return EXIT_OK


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad {what} list: {text!r}") from exc
    if not values:
        raise ConfigurationError(f"empty {what} list")
    if not all(map(math.isfinite, values)):
        raise ConfigurationError(f"{what} values must be finite, got {text!r}")
    return values


def cmd_sweep(args) -> int:
    config, paths = _load_run(args)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if args.sample_rep:
        thresholds = _parse_floats(
            args.thresholds or "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "threshold"
        )
        samples = load_dataset(config.dataset)
        recorded = read_predictions(Path(args.sample_rep))
        writer.writerow(["threshold", "f1_u", "f1_a"])
        for threshold in thresholds:
            predictions = [judge_sample_rep(p, threshold, config.seed) for p in recorded]
            report = evaluate(samples, predictions, config.rouge_threshold)
            writer.writerow([threshold, f"{report.f1_u:.6f}", f"{report.f1_a:.6f}"])
        default_out = paths.workdir / "sample_rep_sweep.csv"
    else:
        epsilons = (
            _parse_floats(args.epsilons, "epsilon")
            if args.epsilons
            else list(DEFAULT_EPSILON_GRID)
        )
        records = read_records(paths.require(paths.records, "detect"))
        writer.writerow(["epsilon", "pool_size"])
        for epsilon, size in sweep_epsilon(records, epsilons):
            writer.writerow([epsilon, size])
        default_out = paths.workdir / "epsilon_sweep.csv"
    out = Path(args.out_csv) if args.out_csv else default_out
    write_text_atomic(out, buffer.getvalue())
    print(buffer.getvalue().rstrip("\n"))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_ambiguate(args) -> int:
    # The allowlist is read before the backend opens, so a bad one costs no
    # backend call.
    allowed = read_allowlist(args.allowlist) if args.allowlist else None
    return _run_stage(args, "ambiguate", partial(_ambiguate, allowed))


def _ambiguate(allowed, args, config, paths, templates, backend) -> _Stage:
    accepted, rejects = ambiguate(
        load_dataset(config.dataset), backend, templates, _greedy_params(config)
    )
    if allowed is not None:
        accepted = [s for s in accepted if s.id in allowed]
    out = paths.workdir / "ambiguated.jsonl"
    return _Stage(
        [(out, lambda path: write_jsonl_atomic(path, (sample_to_obj(s) for s in accepted))),
         (paths.workdir / "ambiguate_rejects.jsonl",
          lambda path: write_jsonl_atomic(path, rejects))],
        {"accepted": len(accepted), "rejected": len(rejects)},
        f"ambiguated {len(accepted)} samples ({len(rejects)} rejected) -> {out}",
    )


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambigkit",
        description=(
            "Measure a model's perceived ambiguity, build clarification-"
            "labeled training data, and evaluate ambiguity handling."
        ),
    )
    parser.add_argument("--config", default="ambigkit.json",
                        help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="override the information-gain threshold")
    parser.add_argument("--backend", default=None,
                        help="override the backend: toy:<fixture> or remote:<endpoint>")
    parser.add_argument("--out", default=None,
                        help="override the working/output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("assess", help="stage 1: split the dataset by current correctness")
    sub.add_parser("detect", help="stage 2: measure perceived ambiguity of incorrect samples")

    label = sub.add_parser("label", help="stage 3: select, balance, and label")
    label.add_argument("--kind", choices=["fixed", "generated"], default=None,
                       help="override the clarification label kind")

    sub.add_parser("emit", help="export the balanced training JSONL")

    verify = sub.add_parser("verify", help="re-check an exported training file")
    verify.add_argument("path", nargs="?", default=None,
                        help="file to verify (default: workdir/sft.jsonl)")

    ev = sub.add_parser("eval", help="run a baseline or score predictions")
    ev_mode = ev.add_mutually_exclusive_group()
    ev_mode.add_argument("--strategy", choices=list(_STRATEGIES), default=None,
                         help="inference-only baseline to run (default: direct)")
    ev_mode.add_argument("--predictions", default=None,
                         help="score an external predictions JSONL instead")
    ev_mode.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                         default=None,
                         help="two prediction files; reports the regression rate")
    ev_mode.add_argument("--aggregate", nargs="+", metavar="REPORT", default=None,
                         help="mean/stddev of F1 scores over report files")
    ev.add_argument("--report", default=None, help="report output path")

    sweep = sub.add_parser("sweep", help="threshold sweeps as CSV")
    sweep.add_argument("--epsilons", default=None,
                       help="comma-separated epsilon grid (default 0.1,0.3,0.5,0.7,0.9)")
    sweep.add_argument("--sample-rep", dest="sample_rep", default=None,
                       help="sweep sample-rep thresholds over this predictions file")
    sweep.add_argument("--thresholds", default=None,
                       help="comma-separated sample-rep thresholds")
    sweep.add_argument("--out-csv", dest="out_csv", default=None,
                       help="CSV output path")

    amb = sub.add_parser("ambiguate", help="construct ambiguated questions")
    amb.add_argument("--allowlist", default=None,
                     help="keep only ids listed in this file (one per line)")
    return parser


_HANDLERS = {
    "assess": partial(_run_stage, command="assess", body=_assess),
    "detect": partial(_run_stage, command="detect", body=_detect),
    "label": partial(_run_stage, command="label", body=_label),
    "emit": partial(_run_stage, command="emit", body=_emit, uses_backend=False),
    "verify": cmd_verify,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "ambiguate": cmd_ambiguate,
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
    except AmbigkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
