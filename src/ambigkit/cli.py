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
4 data-integrity error. ``_plan`` names each command's files before it runs:
the manifest, the files read and written, the body, and whether it uses the
backend; a body reads only the files its plan names. Every command runs
through ``_run_stage``: it prints the effective seed, refuses before any
work an output it cannot or may not write and a missing checkpoint, and
writes a manifest into the working directory, which records the files the
command read and wrote and the settings it ran with.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .backend import GenerationParams
from .config import RunConfig, config_hash, load_config, make_backend, recorded
from .corpus import (
    PromptTemplate,
    ambiguate,
    load_dataset,
    load_templates,
    read_allowlist,
    template_files,
    template_fingerprints,
)
from .errors import BackendError, ConfigurationError, DataIntegrityError
from .evalkit import (
    OutcomeCounts,
    aggregate_reports,
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
    record_from,
    record_obj,
    write_json_atomic,
    write_jsonl_atomic,
    write_text_atomic,
)
from .pipeline import (
    Selection,
    StageOnePartition,
    label_records,
    perceived_ambiguous,
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
DEFAULT_THRESHOLD_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_INTEGRITY = 4


# Each checkpoint in the workdir, by file name, and the command that writes
# it, in chain order (``_plan`` unpacks them in it).
_CHECKPOINTS = {"assess.jsonl": "assess", "records.jsonl": "detect", "labels.jsonl": "label",
                "selection.json": "label", "sft.jsonl": "emit"}


def _start(args) -> tuple[RunConfig, dict[str, PromptTemplate]]:
    """Setup of every command: the effective config, the seed line and the
    command's one template load."""
    # The flags that set a config value, each under the setting's name.
    config = load_config(args.config, {key: getattr(args, key, None) for key in (
        "seed", "epsilon", "workdir", "backend", "label_kind")})
    print(f"effective seed: {config.seed}")
    return config, load_templates(config.template_dir)


def _greedy_params(config: RunConfig) -> GenerationParams:
    # Every reply is cut at its first newline (``corpus.trim_continuation``),
    # so the server may stop there instead of decoding the next few-shot block.
    return GenerationParams(max_tokens=config.max_tokens, temperature=0.0,
                            stop_sequences=("\n",))


def _read_partition(dataset: Path, assess: Path) -> StageOnePartition:
    return read_partition(assess, {s.id: s for s in load_dataset(dataset)})


class _Stage(NamedTuple):
    """What a stage body hands back to ``_run_stage``: one function per
    planned output that writes it there, in plan order, the manifest's
    summary fields, the line to print, and the exit code."""

    writers: list[Callable[[Path], object]]
    summary: dict
    message: str
    exit_code: int = EXIT_OK


class _Plan(NamedTuple):
    """A command's manifest name, the files it reads (the manifest's
    ``inputs``) and writes, its body, and whether that uses the backend."""

    command: str
    reads: list[Path]
    writes: list[Path]
    body: Callable[..., _Stage]
    uses_backend: bool = True


def _run_stage(args) -> int:
    """Run the command ``_plan`` names. Before any work, so before the
    backend is made, it makes the workdir and refuses an output that cannot
    be written, that is another output (the manifest counted), that is a
    file the command reads (a planned input, the config, the toy fixture, a
    template, or the request journal, whose name is reserved), or that is
    another command's checkpoint or manifest; then a missing planned
    checkpoint, naming the command that writes it. Then ``body(config,
    templates, backend, reads, writes)`` computes from the plan's files
    alone, with the backend open if it uses one, and this writes the outputs,
    ``manifest_<command>.json`` and the body's line. A body that raises (a
    total outage included, see ``evalkit.run_each``) writes nothing."""
    config, templates = _start(args)
    plan = _plan(args, config)
    workdir = Path(config.workdir)
    with output_file(workdir):
        workdir.mkdir(parents=True, exist_ok=True)
    manifest = workdir / f"manifest_{plan.command}.json"
    journal_file = workdir / "backend_journal.jsonl"
    targets = [*plan.writes, manifest]
    inputs = {path.resolve() for path in [
        *plan.reads, Path(args.config), *template_files(config.template_dir).values(),
        *([Path(config.backend.fixture)] if config.backend.fixture else []), journal_file]}
    reserved = {name for name, producer in _CHECKPOINTS.items() if producer != plan.command}
    for i, path in enumerate(targets):
        resolved = path.resolve()
        if resolved in inputs:
            raise ConfigurationError(f"{plan.command} would overwrite its input {path}")
        if resolved in {other.resolve() for other in targets[:i]}:
            raise ConfigurationError(f"{plan.command} would write {path} twice")
        if resolved.parent == workdir.resolve() and (resolved.name in reserved or (
                resolved.match("manifest_*.json") and resolved.name != manifest.name)):
            raise ConfigurationError(
                f"{plan.command} would overwrite {path}, which another command writes")
    for path in plan.writes:
        with output_file(path):
            path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            raise ConfigurationError(f"cannot write {path}: Is a directory")
    for path in plan.reads:
        if path.parent == workdir and path.name in _CHECKPOINTS and not path.is_file():
            raise ConfigurationError(f"missing checkpoint {path}; "
                                     f"run `ambigkit {_CHECKPOINTS[path.name]}` first")
    # A remote backend journals its deterministic requests in the workdir, so no
    # stage or rerun sends one twice; the toy backend, the in-process oracle,
    # ignores the journal.
    with (contextlib.closing(make_backend(config.backend, journal=journal_file))
          if plan.uses_backend else contextlib.nullcontext()) as backend:
        stage = plan.body(config, templates, backend, plan.reads, plan.writes)
    for path, write in zip(plan.writes, stage.writers, strict=True):
        write(path)
    journal = getattr(backend, "journal", None)
    write_json_atomic(manifest, {
        "command": plan.command,
        "config_hash": config_hash(config),
        "config": recorded(config),
        **({} if journal is None else {"journal": {"hits": journal.hits,
                                                   "misses": journal.misses}}),
        "template_hashes": template_fingerprints(templates),
        "inputs": list(map(str, plan.reads)),
        "outputs": list(map(str, plan.writes)),
        **stage.summary,
    })
    print(stage.message)
    return stage.exit_code


# -- commands ------------------------------------------------------------------


def _assess(config, templates, backend, reads, writes) -> _Stage:
    samples = load_dataset(*reads)
    partition = stage1_assess(
        samples, backend, templates, _greedy_params(config),
        mode=config.truncation_mode, rouge_threshold=config.rouge_threshold,
    )
    correct, incorrect = len(partition.correct), len(partition.incorrect)
    return _Stage(
        [lambda path: write_partition(partition, path)],
        {"correct": correct, "incorrect": incorrect, "errored": len(partition.errored)},
        f"assessed {len(samples)} samples: {correct} correct, "
        f"{incorrect} incorrect, {len(partition.errored)} errored",
    )


def _detect(config, templates, backend, reads, writes) -> _Stage:
    dataset, assess = reads
    partition = _read_partition(dataset, assess)
    if not partition.correct:  # select_and_balance's refusal, foretold
        print(f"warning: {assess} holds no correct sample, so `label` will refuse "
              "this run; only `sweep` can use its records", file=sys.stderr)
    records, errored = stage2_disambiguate(
        [partition.samples[a.sample_id] for a in partition.incorrect], backend, templates,
        _greedy_params(config), mode=config.truncation_mode,
    )
    ambiguous = len(perceived_ambiguous(records, config.epsilon))
    return _Stage(
        [lambda path: write_records(records, path, config.epsilon)],
        {"records": len(records), "perceived_ambiguous": ambiguous,
         "errored": len(errored)},
        f"disambiguated {len(records)} samples at epsilon={config.epsilon}: "
        f"{ambiguous} perceived ambiguous, {len(errored)} errored",
    )


def _label(config, templates, backend, reads, writes) -> _Stage:
    dataset, assess, records_path = reads
    partition = _read_partition(dataset, assess)
    records = read_records(records_path)
    selection = select_and_balance(
        partition, records, config.strategy, config.epsilon, config.seed
    )
    _, ambiguous = selection.halves(partition, records)
    labels = label_records(
        ambiguous, config.label_kind, backend, templates,
        _greedy_params(config), master_seed=config.seed,
    )
    return _Stage(
        [lambda path: write_labels(labels, path),
         lambda path: write_json_atomic(path, record_obj(selection))],
        {"labeled": len(labels)},
        f"selected {len(selection.correct_ids)} correct + "
        f"{len(ambiguous)} ambiguous ({config.strategy.value}); "
        f"labeled with kind={config.label_kind.value}",
    )


def _emit(config, templates, backend, reads, writes) -> _Stage:
    dataset, assess, records_path, labels_path, selection_path = reads
    partition = _read_partition(dataset, assess)
    records = read_records(records_path)
    labels = {label.sample_id: label for label in read_labels(labels_path)}
    with record_at(selection_path):
        correct, ambiguous = record_from(Selection, read_json_object(selection_path)).halves(
            partition, records)
    with record_at(labels_path):
        if unlabelled := [r.sample_id for r in ambiguous if r.sample_id not in labels]:
            raise DataIntegrityError(f"no clarification label for sample(s) {unlabelled}")
    # sft_emit writes one record per selected sample.
    count = len(correct) + len(ambiguous)
    return _Stage(
        [lambda path: sft_emit(
            correct, ambiguous, labels, templates["direct"], path, master_seed=config.seed,
        )],
        {"records": count},
        f"emitted {count} training records to {writes[0]}",
    )


def _verify(config, templates, backend, reads, writes) -> _Stage:
    [target] = reads
    report = sft_verify(target, answer_cue=templates["direct"].answer_cue)
    for message in report.failures:
        print(f"  {message}", file=sys.stderr)
    return _Stage([], report.counts(), f"verify {target}: {report.summary()}",
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


def _eval(strategy, config, templates, backend, reads, writes) -> _Stage:
    """Run ``strategy`` and write its predictions, or, with ``strategy``
    None, read the predictions file that follows the dataset in ``reads``;
    then write the report on them."""
    dataset, *source = reads
    samples = load_dataset(dataset)
    if strategy is None:
        predictions, writers = read_predictions(*source), []
    else:
        predictions = _STRATEGIES[strategy](
            config, samples, backend, templates, _greedy_params(config))
        writers = [lambda path: write_predictions(predictions, path)]
    report = report_obj(evaluate(samples, predictions, config.rouge_threshold, *source))
    left_out = report["counts"]["errored"]
    note = f"  {left_out} errored, left out of F1" if left_out else ""
    return _Stage(
        [*writers, lambda path: write_json_atomic(path, report)],
        {"predictions": len(predictions), "errored": left_out},
        f"F1_u: {report['f1_u']:.4f}  F1_a: {report['f1_a']:.4f}{note}  ({writes[-1]})",
    )


def _eval_compare(config, templates, backend, reads, writes) -> _Stage:
    dataset, *compared = reads
    samples = load_dataset(dataset)
    before, after = ({row.sample_id: row.category for row in evaluate(
        samples, read_predictions(p), config.rouge_threshold, p)} for p in compared)
    regression = record_obj(mcr(before, after))
    rate = "n/a" if regression["mcr"] is None else f"{regression['mcr']:.4f}"
    return _Stage([lambda path: write_json_atomic(path, regression)],
                  regression, f"MCR: {rate} ({writes[0]})")


def _eval_aggregate(config, templates, backend, reads, writes) -> _Stage:
    summary = aggregate_reports(reads)
    return _Stage(
        [lambda path: write_json_atomic(path, summary)],
        {"reports": len(reads)},
        f"aggregated {summary['n']} reports: " + "".join(
            f"{label} {summary[key]['mean']:.4f} ({summary[key]['stddev']:.4f})  "
            for key, label in (("f1_u", "F1_u"), ("f1_a", "F1_a"))) + f"({writes[0]})",
    )


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


def _sweep_stage(rows: list, summary: dict, out: Path) -> _Stage:
    """Write ``rows`` as CSV to ``out``; print them."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    text = buffer.getvalue()
    return _Stage([lambda path: write_text_atomic(path, text)],
                  {**summary, "points": len(rows) - 1},
                  text.rstrip("\n") + f"\nwrote {out}")


def _sweep_epsilon(epsilons, config, templates, backend, reads, writes) -> _Stage:
    records = read_records(*reads)
    return _sweep_stage([["epsilon", "pool_size"], *sweep_epsilon(records, epsilons)],
                        {"records": len(records)}, writes[0])


def _sweep_sample_rep(thresholds, config, templates, backend, reads, writes) -> _Stage:
    dataset, source = reads
    samples = load_dataset(dataset)
    recorded = read_predictions(source)
    rows = [["threshold", "f1_u", "f1_a"]]
    for threshold in thresholds:
        predictions = [judge_sample_rep(p, threshold, config.seed) for p in recorded]
        counts = OutcomeCounts.of(
            evaluate(samples, predictions, config.rouge_threshold, source))
        rows.append([threshold, f"{f1_unambig(counts):.6f}", f"{f1_ambig(counts):.6f}"])
    return _sweep_stage(rows, {"predictions": len(recorded)}, writes[0])


def _ambiguate(config, templates, backend, reads, writes) -> _Stage:
    dataset, *allowlist = reads
    # The allowlist is read before the first backend call, so a bad one
    # costs none.
    allowed = read_allowlist(*allowlist) if allowlist else None
    accepted, rejects = ambiguate(
        load_dataset(dataset), backend, templates, _greedy_params(config)
    )
    if allowed is not None:
        accepted = [s for s in accepted if s.id in allowed]
    return _Stage(
        [lambda path: write_jsonl_atomic(path, map(record_obj, accepted)),
         lambda path: write_jsonl_atomic(path, rejects)],
        {"accepted": len(accepted), "rejected": len(rejects)},
        f"ambiguated {len(accepted)} samples ({len(rejects)} rejected) -> {writes[0]}",
    )


def _plan(args, config: RunConfig) -> _Plan:
    """README's Pipeline table: what ``args`` runs, the files it reads and
    writes (a flag's path, the dataset or the workdir's), and whether it
    uses the backend; the modes that score recorded results need none. A
    sweep's grid is read here, so a bad one is refused before any file."""
    dataset, out = Path(config.dataset), Path(config.workdir)
    assess, records, labels, selection, sft = (out / name for name in _CHECKPOINTS)

    def report(name: str) -> Path:
        return Path(args.report or out / f"eval_{name}.json")

    match args.command:
        case "assess":
            return _Plan("assess", [dataset], [assess], _assess)
        case "detect":
            return _Plan("detect", [dataset, assess], [records], _detect)
        case "label":
            return _Plan("label", [dataset, assess, records], [labels, selection], _label)
        case "emit":
            return _Plan("emit", [dataset, assess, records, labels, selection], [sft], _emit,
                         uses_backend=False)
        case "verify":
            return _Plan("verify", [Path(args.path or sft)], [], _verify, uses_backend=False)
        case "eval" if args.predictions is not None:
            return _Plan("eval_predictions", [dataset, Path(args.predictions)],
                         [report("predictions")], partial(_eval, None), uses_backend=False)
        case "eval" if args.compare is not None:
            return _Plan("eval_compare", [dataset, *map(Path, args.compare)],
                         [report("compare")], _eval_compare, uses_backend=False)
        case "eval" if args.aggregate is not None:
            return _Plan("eval_aggregate", list(map(Path, args.aggregate)),
                         [report("aggregate")], _eval_aggregate, uses_backend=False)
        case "eval":
            name = args.strategy or "direct"
            return _Plan(f"eval_{name}", [dataset],
                         [out / f"predictions_{name}.jsonl", report(name)],
                         partial(_eval, name))
        # A grid given for the other sweep is an error, not something to ignore.
        case "sweep" if args.sample_rep is None:
            if args.thresholds is not None:
                raise ConfigurationError("--thresholds applies only with --sample-rep")
            epsilons = _grid(args.epsilons, DEFAULT_EPSILON_GRID, "epsilon")
            return _Plan("sweep_epsilon", [records],
                         [Path(args.out_csv or out / "epsilon_sweep.csv")],
                         partial(_sweep_epsilon, epsilons), uses_backend=False)
        case "sweep":
            if args.epsilons is not None:
                raise ConfigurationError("--epsilons applies only without --sample-rep")
            thresholds = _grid(args.thresholds, DEFAULT_THRESHOLD_GRID, "threshold")
            return _Plan("sweep_sample_rep", [dataset, Path(args.sample_rep)],
                         [Path(args.out_csv or out / "sample_rep_sweep.csv")],
                         partial(_sweep_sample_rep, thresholds), uses_backend=False)
        case "ambiguate":
            allowlist = [] if args.allowlist is None else [Path(args.allowlist)]
            return _Plan("ambiguate", [dataset, *allowlist],
                         [out / "ambiguated.jsonl", out / "ambiguate_rejects.jsonl"], _ambiguate)


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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_stage(args)
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
