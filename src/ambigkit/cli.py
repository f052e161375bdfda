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
import json
import sys
from dataclasses import replace
from pathlib import Path

from .backend import Backend, GenerationParams
from .config import RunConfig, apply_overrides, config_hash, load_config, make_backend
from .corpus import (
    PromptTemplate,
    QASample,
    ambiguate,
    filter_allowlist,
    load_dataset,
    load_templates,
    sample_to_obj,
    template_fingerprints,
    validate_ambiguation,
)
from .errors import (
    AmbigkitError,
    BackendError,
    ConfigurationError,
    DataIntegrityError,
    ParseError,
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
from .jsonio import write_json_atomic, write_jsonl_atomic, write_text_atomic
from .pipeline import (
    LabelKind,
    StageOnePartition,
    label_records,
    read_labels,
    read_partition,
    read_records,
    select_and_balance,
    stage1_assess,
    stage2_disambiguate,
    sweep_epsilon,
    write_labels,
    write_partition,
    write_records,
)
from .sft import emit as sft_emit
from .sft import verify as sft_verify

DEFAULT_EPSILON_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_INTEGRITY = 4


def _fail_if_total_outage(processed: int, errored: list | tuple) -> None:
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
    return config, _Paths(config)


def _start(args) -> tuple[RunConfig, _Paths, dict[str, PromptTemplate]]:
    """Setup of every command that runs a stage or scores predictions: the
    effective config, the seed line, the checkpoint paths and the command's
    one template load."""
    config, paths = _load_run(args)
    print(f"effective seed: {config.seed}")
    return config, paths, load_templates(config.template_dir)


@contextlib.contextmanager
def _backend(config: RunConfig, paths: _Paths):
    """The command's backend. A remote one journals its deterministic
    requests in the workdir, so no stage or rerun sends one twice; the toy
    backend is the in-process oracle and has nothing to save."""
    if config.backend.kind == "remote":
        backend = make_backend(config.backend, journal=paths.journal)
    else:
        backend = make_backend(config.backend)
    try:
        yield backend
    finally:
        backend.close()


def _greedy_params(config: RunConfig) -> GenerationParams:
    return GenerationParams(max_tokens=config.max_tokens, temperature=0.0)


def _dataset(config: RunConfig) -> list[QASample]:
    if not Path(config.dataset).is_file():
        raise ConfigurationError(f"dataset file not found: {config.dataset}")
    return load_dataset(config.dataset)


def _read_partition(config: RunConfig, paths: _Paths) -> StageOnePartition:
    samples_by_id = {s.id: s for s in _dataset(config)}
    return read_partition(paths.require(paths.assess, "assess"), samples_by_id)


def _write_manifest(config: RunConfig, paths: _Paths,
                    templates: dict[str, PromptTemplate], command: str,
                    outputs: list[str], extra: dict,
                    backend: Backend | None = None) -> None:
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


# -- commands ------------------------------------------------------------------


def cmd_assess(args) -> int:
    config, paths, templates = _start(args)
    samples = _dataset(config)
    with _backend(config, paths) as backend:
        partition = stage1_assess(
            samples, backend, templates, _greedy_params(config),
            mode=config.truncation_mode, rouge_threshold=config.rouge_threshold,
        )
    _fail_if_total_outage(
        len(partition.correct) + len(partition.incorrect), partition.errored
    )
    write_partition(partition, paths.assess)
    _write_manifest(config, paths, templates, "assess", [str(paths.assess)],
                    {"correct": len(partition.correct),
                     "incorrect": len(partition.incorrect),
                     "errored": len(partition.errored)}, backend)
    print(
        f"assessed {len(samples)} samples: {len(partition.correct)} correct, "
        f"{len(partition.incorrect)} incorrect, {len(partition.errored)} errored"
    )
    return EXIT_OK


def cmd_detect(args) -> int:
    config, paths, templates = _start(args)
    partition = _read_partition(config, paths)
    with _backend(config, paths) as backend:
        records, errored = stage2_disambiguate(
            [a.sample for a in partition.incorrect], backend, templates,
            _greedy_params(config), mode=config.truncation_mode, epsilon=config.epsilon,
        )
    _fail_if_total_outage(len(records), errored)
    write_records(records, paths.records)
    ambiguous = sum(1 for r in records if r.verdict.value == "perceived_ambiguous")
    _write_manifest(config, paths, templates, "detect", [str(paths.records)],
                    {"records": len(records), "perceived_ambiguous": ambiguous,
                     "errored": len(errored)}, backend)
    print(
        f"disambiguated {len(records)} samples at epsilon={config.epsilon}: "
        f"{ambiguous} perceived ambiguous, {len(errored)} errored"
    )
    return EXIT_OK


def cmd_label(args) -> int:
    config, paths, templates = _start(args)
    if args.kind:
        config = replace(config, label_kind=LabelKind(args.kind))
    partition = _read_partition(config, paths)
    records = read_records(paths.require(paths.records, "detect"))
    selection = select_and_balance(
        partition, records, config.strategy, config.epsilon, config.seed
    )
    with _backend(config, paths) as backend:
        labels = label_records(
            selection.ambiguous, config.label_kind, backend, templates,
            _greedy_params(config), master_seed=config.seed,
        )
    write_labels(labels, paths.labels)
    write_json_atomic(
        paths.selection,
        {
            "strategy": selection.strategy.value,
            "epsilon": selection.epsilon,
            "correct_ids": [a.sample.id for a in selection.correct],
            "ambiguous_ids": [r.sample_id for r in selection.ambiguous],
        },
    )
    _write_manifest(config, paths, templates, "label",
                    [str(paths.labels), str(paths.selection)],
                    {"labeled": len(labels)}, backend)
    print(
        f"selected {len(selection.correct)} correct + "
        f"{len(selection.ambiguous)} ambiguous ({config.strategy.value}); "
        f"labeled with kind={config.label_kind.value}"
    )
    return EXIT_OK


def cmd_emit(args) -> int:
    config, paths, templates = _start(args)
    partition = _read_partition(config, paths)
    records = {r.sample_id: r for r in read_records(paths.require(paths.records, "detect"))}
    labels = {
        label.sample_id: label
        for label in read_labels(paths.require(paths.labels, "label"))
    }
    selection_file = paths.require(paths.selection, "label")
    selection_obj = json.loads(selection_file.read_text(encoding="utf-8"))
    assessed = partition.assessed_by_id()
    try:
        correct = [assessed[i] for i in selection_obj["correct_ids"]]
        ambiguous = [records[i] for i in selection_obj["ambiguous_ids"]]
    except KeyError as exc:
        raise DataIntegrityError(f"selection references unknown sample {exc}") from exc
    count = sft_emit(
        correct, ambiguous, labels, templates["direct"], paths.sft,
        master_seed=config.seed,
    )
    _write_manifest(config, paths, templates, "emit", [str(paths.sft)],
                    {"records": count})
    print(f"emitted {count} training records to {paths.sft}")
    return EXIT_OK


def cmd_verify(args) -> int:
    config, paths = _load_run(args)
    target = Path(args.path) if args.path else paths.require(paths.sft, "emit")
    templates = load_templates(config.template_dir)
    report = sft_verify(target, answer_cue=templates["direct"].answer_cue)
    print(f"verify {target}: {report.summary()}")
    for line_number, message in report.failures:
        print(f"  line {line_number}: {message}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_INTEGRITY


def _run_strategy(config: RunConfig, backend: Backend, strategy: str, samples,
                  templates: dict[str, PromptTemplate]) -> list[PredictionRecord]:
    params = _greedy_params(config)
    if strategy == "direct":
        return run_direct(samples, backend, templates, params)
    if strategy == "ambig_aware":
        return run_ambig_aware(samples, backend, templates, params)
    if strategy == "sample_rep":
        return run_sample_rep(
            samples, backend, templates, params,
            threshold=config.sample_rep.threshold,
            num_samples=config.sample_rep.num_samples,
            temperature=config.sample_rep.temperature,
            master_seed=config.seed,
        )
    if strategy == "self_ask":
        return run_self_ask(samples, backend, templates, params, master_seed=config.seed)
    raise ConfigurationError(f"unknown eval strategy {strategy!r}")


def _aggregate_reports(report_paths: list[Path]) -> dict:
    import statistics

    values: dict[str, list[float]] = {"f1_u": [], "f1_a": []}
    for path in report_paths:
        if not path.is_file():
            raise ConfigurationError(f"report file not found: {path}")
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc.msg}") from exc
        for key in values:
            if key not in obj:
                raise ParseError(f"{path}: report lacks {key!r}")
            values[key].append(float(obj[key]))
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
    config, paths, templates = _start(args)
    samples = _dataset(config)
    if args.compare:
        before, after = (
            {o.sample_id: o.category
             for o in evaluate(samples, read_predictions(Path(p)),
                               config.rouge_threshold).per_sample}
            for p in args.compare
        )
        rate = mcr(before, after)
        report_obj = {
            "mcr": rate,
            "before_correct": sum(1 for c in before.values() if c == 3),
            "shifted": sum(
                1 for sid, c in before.items() if c == 3 and after[sid] == 5
            ),
        }
        out = Path(args.report) if args.report else paths.workdir / "eval_compare.json"
        write_json_atomic(out, report_obj)
        print(f"MCR: {'n/a' if rate is None else f'{rate:.4f}'} ({out})")
        return EXIT_OK

    if args.predictions:
        predictions = read_predictions(Path(args.predictions))
        name = "predictions"
    else:
        name = args.strategy or "direct"
        with _backend(config, paths) as backend:
            predictions = _run_strategy(config, backend, name, samples, templates)
        errored = [(p.sample_id, p.error) for p in predictions if p.error is not None]
        _fail_if_total_outage(len(predictions) - len(errored), errored)
        write_predictions(predictions, paths.workdir / f"predictions_{name}.jsonl")
    report = evaluate(samples, predictions, config.rouge_threshold)
    out = Path(args.report) if args.report else paths.workdir / f"eval_{name}.json"
    write_json_atomic(
        out,
        report.to_obj(
            {
                "epsilon": config.epsilon,
                "truncation_mode": config.truncation_mode.value,
                "rouge_threshold": config.rouge_threshold,
                "seed": config.seed,
                "strategy": name,
            }
        ),
    )
    print(f"F1_u: {report.f1_u:.4f}  F1_a: {report.f1_a:.4f}  ({out})")
    return EXIT_OK


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad {what} list: {text!r}") from exc
    if not values:
        raise ConfigurationError(f"empty {what} list")
    return values


def cmd_sweep(args) -> int:
    config, paths = _load_run(args)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if args.sample_rep:
        thresholds = _parse_floats(
            args.thresholds or "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "threshold"
        )
        samples = _dataset(config)
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
    config, paths, templates = _start(args)
    samples = _dataset(config)
    params = _greedy_params(config)
    accepted: list[QASample] = []
    rejects: list[dict] = []
    with _backend(config, paths) as backend:
        for sample in samples:
            candidate = ambiguate(sample, backend, templates["ambiguate"], params)
            if candidate is None:
                rejects.append({"id": sample.id, "reason": "empty_generation"})
                continue
            if not validate_ambiguation(
                candidate, backend, templates["ambiguation_validation"], params
            ):
                rejects.append({"id": sample.id, "reason": "validation_failed",
                                "candidate": candidate})
                continue
            accepted.append(
                QASample(
                    id=sample.id,
                    question=candidate,
                    answers=sample.answers,
                    gold_ambiguous=True,
                    source=sample.source,
                )
            )
    if args.allowlist:
        accepted = filter_allowlist(accepted, args.allowlist)
    out = paths.workdir / "ambiguated.jsonl"
    write_jsonl_atomic(out, (sample_to_obj(s) for s in accepted))
    rejects_path = paths.workdir / "ambiguate_rejects.jsonl"
    write_jsonl_atomic(rejects_path, rejects)
    _write_manifest(config, paths, templates, "ambiguate", [str(out), str(rejects_path)],
                    {"accepted": len(accepted), "rejected": len(rejects)}, backend)
    print(f"ambiguated {len(accepted)} samples ({len(rejects)} rejected) -> {out}")
    return EXIT_OK


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
    ev_mode.add_argument("--strategy",
                         choices=["direct", "ambig_aware", "sample_rep", "self_ask"],
                         default=None,
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
    "assess": cmd_assess,
    "detect": cmd_detect,
    "label": cmd_label,
    "emit": cmd_emit,
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
