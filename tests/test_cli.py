from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import ambigkit.cli
import ambigkit.corpus
import ambigkit.jsonio
import ambigkit.remote
import ambigkit.toy
from ambigkit.backend import Backend
from ambigkit.cli import main
from ambigkit.config import LabelKind, RunConfig, config_hash, load_config
from ambigkit.corpus import template_files
from ambigkit.jsonio import record_from
from ambigkit.phrases import FIXED_CLARIFICATIONS
from ambigkit.sft import verify as sft_verify
from ambigkit.toy import ToyBackend

from conftest import FIXTURES, table_path
from helpers import LoopbackServer, RefuseQuestion, run_chain, workdir_of, write_toy_config


def run(*argv: str) -> int:
    return main(list(argv))


def test_full_chain_produces_balanced_sft(tmp_path, capsys):
    config = write_toy_config(tmp_path / "config.json")
    run_chain(config)
    out = workdir_of(config)
    sft_path = out / "sft.jsonl"
    rows = [json.loads(l) for l in sft_path.read_text().splitlines()]
    assert len(rows) == 4
    by_source = {}
    for row in rows:
        by_source.setdefault(row["source"], set()).add(row["id"])
    assert by_source["correct"] == {"s1", "s2"}
    assert by_source["ambig"] == {"s3", "s4"}
    report = sft_verify(sft_path, answer_cue="\nA:")
    assert report.ok
    assert "effective seed: 0" in capsys.readouterr().out


def test_selection_checkpoint_contents(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    run_chain(config)
    selection = json.loads((workdir_of(config) / "selection.json").read_text())
    assert selection["ambiguous_ids"] == ["s3", "s4"]  # descending gain
    assert set(selection["correct_ids"]) == {"s1", "s2"}


def test_emit_rerun_byte_identical(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    run_chain(config)
    sft_path = workdir_of(config) / "sft.jsonl"
    first = sft_path.read_bytes()
    assert run("--config", str(config), "emit") == 0
    assert sft_path.read_bytes() == first


def test_detect_pool_shrinks_with_epsilon(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "assess") == 0
    assert run("--config", str(config), "detect") == 0
    manifest = json.loads(
        (workdir_of(config) / "manifest_detect.json").read_text()
    )
    pool_default = manifest["perceived_ambiguous"]
    assert run("--config", str(config), "--epsilon", "0.9", "detect") == 0
    manifest = json.loads(
        (workdir_of(config) / "manifest_detect.json").read_text()
    )
    assert manifest["perceived_ambiguous"] < pool_default
    assert pool_default == 3
    assert manifest["perceived_ambiguous"] == 0


@pytest.mark.parametrize("command,checkpoint,producer", [
    (["detect"], "assess.jsonl", "assess"),
    (["label"], "records.jsonl", "detect"),
    (["emit"], "labels.jsonl", "label"),
    (["emit"], "selection.json", "label"),
    (["verify"], "sft.jsonl", "emit"),
    (["sweep"], "records.jsonl", "detect"),
], ids=["detect", "label", "emit-labels", "emit-selection", "verify", "sweep"])
def test_missing_checkpoint_names_prerequisite(tmp_path, capsys, monkeypatch, command,
                                               checkpoint, producer):
    config = write_toy_config(tmp_path / "config.json")
    run_chain(config)
    path = workdir_of(config) / checkpoint
    path.unlink()

    def no_work(*args, **kwargs):
        pytest.fail("the missing checkpoint was not refused before any work")

    # The refusal comes before the backend is made or the dataset is read.
    monkeypatch.setattr(ambigkit.cli, "make_backend", no_work)
    monkeypatch.setattr(ambigkit.cli, "load_dataset", no_work)
    capsys.readouterr()
    assert run("--config", str(config), *command) == 2
    assert (f"missing checkpoint {path}; run `ambigkit {producer}` first"
            in capsys.readouterr().err)


def test_missing_config_exits_2(tmp_path, capsys):
    assert run("--config", str(tmp_path / "nope.json"), "assess") == 2


def test_unknown_config_key_exits_2(tmp_path):
    config = write_toy_config(tmp_path / "config.json", bogus_key=1)
    assert run("--config", str(config), "assess") == 2


@pytest.mark.parametrize("patch,key", [({"epsilom": 0.2}, "epsilom"),
                                       ({"backend": {"endpiont": "http://h/v1"}}, "endpiont")],
                         ids=["top-level", "backend"])
def test_misspelt_config_key_exits_2_naming_it(tmp_path, capsys, monkeypatch, patch, key):
    config = write_toy_config(tmp_path / "config.json", **patch)
    monkeypatch.setattr(ambigkit.cli, "make_backend", None)  # no backend is made
    assert run("--config", str(config), "assess") == 2
    assert f"bad config: {config}: unknown field(s) {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("checkpoint, command", [
    ("assess.jsonl", ("detect",)),
    ("records.jsonl", ("label",)),
    ("labels.jsonl", ("emit",)),
    ("predictions_direct.jsonl", ("eval", "--predictions")),
])
def test_repeated_checkpoint_line_exits_4(tmp_path, capsys, checkpoint, command):
    config = write_toy_config(tmp_path / "config.json")
    run_chain(config)
    assert run("--config", str(config), "eval", "--strategy", "direct") == 0
    path = workdir_of(config) / checkpoint
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines) + lines[0])
    if command[0] == "eval":
        command += (str(path),)
    capsys.readouterr()
    assert run("--config", str(config), *command) == 4
    record_id = json.loads(lines[0])["id"]
    assert (f"{path} line {len(lines) + 1}: duplicate id {record_id!r}"
            in capsys.readouterr().err)


def test_unreachable_backend_exits_3(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    code = run(
        "--config", str(config),
        "--backend", "remote:http://127.0.0.1:9/v1/completions",
        "assess",
    )
    assert code == 3


def test_verify_corrupted_file_exits_4(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    run_chain(config)
    sft_path = workdir_of(config) / "sft.jsonl"
    rows = sft_path.read_text().splitlines()
    row = json.loads(rows[0])
    row["completion"] = ""
    rows[0] = json.dumps(row)
    sft_path.write_text("".join(r + "\n" for r in rows))
    assert run("--config", str(config), "verify") == 4
    assert run("--config", str(config), "verify", str(sft_path)) == 4


def test_verify_clean_exits_0(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    run_chain(config)
    assert run("--config", str(config), "verify") == 0


# Each command that reads recorded results, the commands that make its
# inputs, its manifest, and the files it reads. OUT stands for the workdir,
# DATA for the dataset.
MANIFEST_COMMANDS = {
    "verify": ([["detect"], ["label"], ["emit"]], ["verify"], "verify", ["OUT/sft.jsonl"]),
    "sweep-epsilon": ([["detect"]], ["sweep"], "sweep_epsilon", ["OUT/records.jsonl"]),
    "sweep-sample-rep": ([["eval", "--strategy", "sample_rep"]],
                         ["sweep", "--sample-rep", "OUT/predictions_sample_rep.jsonl"],
                         "sweep_sample_rep", ["DATA", "OUT/predictions_sample_rep.jsonl"]),
    "eval-predictions": ([["eval", "--strategy", "direct"]],
                         ["eval", "--predictions", "OUT/predictions_direct.jsonl"],
                         "eval_predictions", ["DATA", "OUT/predictions_direct.jsonl"]),
    "eval-compare": ([["eval", "--strategy", "direct"], ["eval", "--strategy", "sample_rep"]],
                     ["eval", "--compare", "OUT/predictions_direct.jsonl",
                      "OUT/predictions_sample_rep.jsonl"],
                     "eval_compare", ["DATA", "OUT/predictions_direct.jsonl",
                                      "OUT/predictions_sample_rep.jsonl"]),
    "eval-aggregate": ([["eval", "--strategy", "direct"], ["eval", "--strategy", "sample_rep"]],
                       ["eval", "--aggregate", "OUT/eval_direct.json",
                        "OUT/eval_sample_rep.json"],
                       "eval_aggregate", ["OUT/eval_direct.json", "OUT/eval_sample_rep.json"]),
}


@pytest.mark.parametrize("mode", list(MANIFEST_COMMANDS))
def test_every_command_writes_its_manifest(tmp_path, capsys, mode):
    inputs, argv, command, read = MANIFEST_COMMANDS[mode]
    config = write_toy_config(tmp_path / "config.json")
    out = workdir_of(config)
    for step in (["assess"], *inputs):
        assert run("--config", str(config), *step) == 0, step
    before = {path.name for path in out.iterdir()}
    capsys.readouterr()
    argv = [arg.replace("OUT", str(out)) for arg in argv]
    assert run("--config", str(config), *argv) == 0
    assert "effective seed: 0" in capsys.readouterr().out
    manifest = json.loads((out / f"manifest_{command}.json").read_text())
    assess = json.loads((out / "manifest_assess.json").read_text())
    assert manifest["command"] == command
    for key in ("config_hash", "config", "template_hashes"):
        assert manifest[key] == assess[key], key
    assert manifest["inputs"] == [
        path.replace("OUT", str(out)).replace("DATA", str(FIXTURES / "corpus.jsonl"))
        for path in read]
    written = {path.name for path in out.iterdir()} - before - {f"manifest_{command}.json"}
    assert [Path(path).parent for path in manifest["outputs"]] == [out] * len(written)
    assert {Path(path).name for path in manifest["outputs"]} == written


# The build chain, the four strategies and each of MANIFEST_COMMANDS, in an
# order that makes every command's inputs before it runs, with its manifest.
PLANNED_RUNS = [
    *(([command], command) for command in ("assess", "detect", "label", "emit")),
    *((["eval", "--strategy", strategy], f"eval_{strategy}")
      for strategy in ("direct", "ambig_aware", "sample_rep", "self_ask")),
    *((argv, command) for _, argv, command, _ in MANIFEST_COMMANDS.values()),
]


def test_a_command_opens_only_its_planned_files(tmp_path, monkeypatch):
    # Besides its setup's files (the config, the toy fixture, the templates),
    # a command opens exactly the inputs its manifest lists, so a check of
    # those inputs sees every file the command reads.
    config = write_toy_config(tmp_path / "config.json")
    settings = load_config(config)
    setup = {config, Path(settings.backend.fixture),
             *template_files(settings.template_dir).values()}
    opened = []

    def recorded(input_file):
        def record(path):
            opened.append(Path(path))
            return input_file(path)
        return record

    for module in (ambigkit.jsonio, ambigkit.corpus, ambigkit.toy, ambigkit.remote):
        monkeypatch.setattr(module, "input_file", recorded(module.input_file))
    out = workdir_of(config)
    for argv, command in PLANNED_RUNS:
        opened.clear()
        assert run("--config", str(config), *(arg.replace("OUT", str(out)) for arg in argv)) == 0
        manifest = json.loads((out / f"manifest_{command}.json").read_text())
        inputs = set(map(Path, manifest["inputs"]))
        assert set(opened) - inputs - setup == set(), command
        assert inputs <= set(opened), command


@pytest.mark.parametrize("name", [
    "assess.jsonl", "records.jsonl", "manifest_assess.json", "predictions_sample_rep.jsonl",
    "eval_self_ask.json", "sample_rep_sweep.csv", "epsilon_sweep.csv", "ambiguated.jsonl",
    "ambiguate_rejects.jsonl", "eval_compare.json",
])
def test_an_output_at_another_commands_file_exits_2_and_writes_nothing(tmp_path, capsys, name):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "assess") == 0
    out = workdir_of(config)
    before = {path: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert run("--config", str(config), "eval", "--strategy", "direct",
               "--report", str(out / name)) == 2
    assert (f"eval_direct would overwrite {out / name}, which another command writes"
            in capsys.readouterr().err)
    assert {path: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("report", [
    "OUT/predictions_direct.jsonl", "OUT/manifest_eval_direct.json", "predictions_direct.jsonl",
], ids=["predictions", "manifest", "relative"])
def test_two_outputs_at_one_path_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys,
                                                          report):
    config = write_toy_config(tmp_path / "config.json")
    out = workdir_of(config)
    out.mkdir()
    monkeypatch.chdir(out)  # the relative --report names the predictions file
    report = report.replace("OUT", str(out))
    assert run("--config", str(config), "eval", "--strategy", "direct",
               "--report", report) == 2
    assert f"eval_direct would write {report} twice" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# Each command that would write over a file it reads, the commands that make
# that file, and the file. OUT stands for the workdir, DATA for the dataset,
# CONFIG for the config file and FIXTURES for the copied fixtures directory,
# which holds the toy fixture and the templates.
OVERWRITTEN_INPUTS = {
    "predictions": ([["eval", "--strategy", "direct"]],
                    ["eval", "--predictions", "OUT/predictions_direct.jsonl",
                     "--report", "OUT/predictions_direct.jsonl"], "OUT/predictions_direct.jsonl"),
    "dataset": ([], ["eval", "--strategy", "direct", "--report", "DATA"], "DATA"),
    "compare-after": ([["eval", "--strategy", "direct"], ["eval", "--strategy", "self_ask"]],
                      ["eval", "--compare", "OUT/predictions_direct.jsonl",
                       "OUT/predictions_self_ask.jsonl",
                       "--report", "OUT/predictions_self_ask.jsonl"],
                      "OUT/predictions_self_ask.jsonl"),
    "aggregate": ([["eval", "--strategy", "direct"], ["eval", "--strategy", "self_ask"]],
                  ["eval", "--aggregate", "OUT/eval_direct.json", "OUT/eval_self_ask.json",
                   "--report", "OUT/eval_self_ask.json"], "OUT/eval_self_ask.json"),
    "sample-rep": ([["eval", "--strategy", "sample_rep"]],
                   ["sweep", "--sample-rep", "OUT/predictions_sample_rep.jsonl",
                    "--out-csv", "OUT/predictions_sample_rep.jsonl"],
                   "OUT/predictions_sample_rep.jsonl"),
    "records": ([["assess"], ["detect"]], ["sweep", "--out-csv", "OUT/records.jsonl"],
                "OUT/records.jsonl"),
    "verified-manifest": ([["assess"], ["detect"], ["label"], ["emit"], ["verify"]],
                          ["verify", "OUT/manifest_verify.json"], "OUT/manifest_verify.json"),
    "config": ([], ["eval", "--strategy", "direct", "--report", "CONFIG"], "CONFIG"),
    "toy-fixture": ([], ["eval", "--strategy", "direct", "--report",
                         "FIXTURES/tables/corpus_world.yaml"],
                    "FIXTURES/tables/corpus_world.yaml"),
    "template": ([], ["eval", "--strategy", "direct", "--report",
                      "FIXTURES/toy_templates/direct.txt"], "FIXTURES/toy_templates/direct.txt"),
    # The request journal's name is reserved, whatever the backend.
    "journal": ([], ["eval", "--strategy", "direct", "--report", "OUT/backend_journal.jsonl"],
                "OUT/backend_journal.jsonl"),
}


@pytest.mark.parametrize("mode", list(OVERWRITTEN_INPUTS))
def test_an_output_at_an_input_exits_2_and_writes_nothing(tmp_path, capsys, mode):
    steps, argv, target = OVERWRITTEN_INPUTS[mode]
    fixtures = tmp_path / "fixtures"  # a copy, so the checkout stays as it is
    shutil.copytree(FIXTURES, fixtures)
    config = write_toy_config(
        tmp_path / "config.json", dataset=str(fixtures / "corpus.jsonl"),
        template_dir=str(fixtures / "toy_templates"),
        backend={"fixture": str(fixtures / "tables" / "corpus_world.yaml")})
    for step in steps:
        assert run("--config", str(config), *step) == 0, step
    names = {"OUT": str(workdir_of(config)), "DATA": str(fixtures / "corpus.jsonl"),
             "CONFIG": str(config), "FIXTURES": str(fixtures)}
    argv = [re.sub("^(OUT|DATA|CONFIG|FIXTURES)", lambda m: names[m[1]], arg) for arg in argv]
    target = re.sub("^(OUT|DATA|CONFIG|FIXTURES)", lambda m: names[m[1]], target)
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    capsys.readouterr()
    assert run("--config", str(config), *argv) == 2
    assert f"would overwrite its input {target}" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def refused_sample_rep(tmp_path: Path, *flags: str) -> list[str]:
    """The argv of a sample_rep run whose report would overwrite a copy of
    the dataset; 99 toy calls (9 samples, 11 each) if it ran."""
    dataset = tmp_path / "corpus.jsonl"
    shutil.copy(FIXTURES / "corpus.jsonl", dataset)
    config = write_toy_config(tmp_path / "config.json", dataset=str(dataset))
    return ["--config", str(config), *flags, "eval", "--strategy", "sample_rep",
            "--report", str(dataset)]


def test_a_refused_output_makes_no_backend_call(tmp_path, capsys, monkeypatch):
    calls = []
    complete = ToyBackend.complete

    def counted(self, *args, **kwargs):
        calls.append(args)
        return complete(self, *args, **kwargs)

    monkeypatch.setattr(ToyBackend, "complete", counted)
    assert run(*refused_sample_rep(tmp_path)) == 2
    assert f"would overwrite its input {tmp_path / 'corpus.jsonl'}" in capsys.readouterr().err
    assert calls == []


def test_a_refused_output_sends_no_request(tmp_path, capsys):
    # A 400 fails each request at once, without a retry.
    with LoopbackServer(lambda body: (400, b"{}")) as server:
        code = run(*refused_sample_rep(tmp_path, "--backend", f"remote:{server.endpoint}"))
    assert code == 2
    assert "would overwrite its input" in capsys.readouterr().err
    assert server.requests == 0


def test_a_refused_output_comes_before_reading_the_inputs(tmp_path, capsys):
    # The predictions file is malformed (exit 4 if read), but the refusal of
    # the report at its path comes first.
    config = write_toy_config(tmp_path / "config.json")
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"id": "s1"}\n')
    assert run("--config", str(config), "eval", "--predictions", str(predictions),
               "--report", str(predictions)) == 2
    assert (f"eval_predictions would overwrite its input {predictions}"
            in capsys.readouterr().err)
    assert predictions.read_text() == '{"id": "s1"}\n'


def test_verify_manifest_records_failures(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    sft_path = run_chain(config)
    rows = sft_path.read_text().splitlines()
    rows[0] = json.dumps({**json.loads(rows[0]), "completion": ""})
    sft_path.write_text("".join(r + "\n" for r in rows))
    manifest_path = workdir_of(config) / "manifest_verify.json"
    for argv in ([], [str(sft_path)]):
        manifest_path.unlink(missing_ok=True)
        assert run("--config", str(config), "verify", *argv) == 4
        manifest = json.loads(manifest_path.read_text())
        assert (manifest["inputs"], manifest["records"], manifest["failures"]) == (
            [str(sft_path)], 4, 1)
        assert manifest["outputs"] == []


def test_unpaired_surrogate_in_a_dataset_id_exits_4(tmp_path, capsys):
    rows = [json.loads(line) for line in (FIXTURES / "corpus.jsonl").read_text().splitlines()]
    rows[0]["id"] = "s1\ud800"
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(row) + "\n" for row in rows))
    config = write_toy_config(tmp_path / "config.json", dataset=str(dataset))
    assert run("--config", str(config), "assess") == 4
    assert f"{dataset} line 1: field 'id' holds an unpaired surrogate" in capsys.readouterr().err
    assert not (workdir_of(config) / "assess.jsonl").exists()


@pytest.mark.parametrize("inputs,argv,target", [
    ([], ["eval", "--strategy", "direct", "--report", "DIR"], "DIR"),
    ([["assess"], ["detect"]], ["sweep", "--out-csv", "FILE/x.csv"], "FILE/x.csv"),
    ([], ["--out", "FILE/sub", "assess"], "FILE/sub"),
], ids=["report-is-a-directory", "out-csv-under-a-file", "workdir-under-a-file"])
def test_unwritable_output_exits_2_naming_it(tmp_path, capsys, inputs, argv, target):
    config = write_toy_config(tmp_path / "config.json")
    (tmp_path / "DIR").mkdir()
    (tmp_path / "FILE").write_text("")
    for step in inputs:
        assert run("--config", str(config), *step) == 0, step
    capsys.readouterr()
    argv = [str(tmp_path / arg) if arg.startswith(("DIR", "FILE")) else arg for arg in argv]
    assert run("--config", str(config), *argv) == 2
    assert f"configuration error: cannot write {tmp_path / target}: " in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp"))
    # Every output is checked before the first is written.
    assert not (workdir_of(config) / "predictions_direct.jsonl").exists()


def test_outputs_in_new_nested_directories_are_written(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    report, csv = tmp_path / "a" / "b" / "r.json", tmp_path / "c" / "d" / "x.csv"
    for step in (["assess"], ["detect"], ["eval", "--strategy", "direct", "--report", str(report)],
                 ["sweep", "--out-csv", str(csv)]):
        assert run("--config", str(config), *step) == 0, step
    assert json.loads(report.read_text())["counts"]
    assert csv.read_text().startswith("epsilon,pool_size")


def test_workdir_under_a_file_exits_2_before_any_backend_call(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(ambigkit.cli, "make_backend",
                        lambda spec, **kw: built.append(spec))
    config = write_toy_config(tmp_path / "config.json")
    (tmp_path / "FILE").write_text("")
    argv = ["--out", str(tmp_path / "FILE" / "sub"), "eval", "--strategy", "direct"]
    assert run("--config", str(config), *argv) == 2
    assert f"cannot write {tmp_path / 'FILE' / 'sub'}: " in capsys.readouterr().err
    assert built == []


def test_failed_label_leaves_no_partial_checkpoint(tmp_path):
    config = write_toy_config(tmp_path / "config.json", epsilon=0.9)
    assert run("--config", str(config), "assess") == 0
    assert run("--config", str(config), "detect") == 0
    # Empty pool at epsilon 0.9: label must fail without leaving artifacts.
    assert run("--config", str(config), "label") == 2
    out = workdir_of(config)
    assert not (out / "labels.jsonl").exists()
    assert not (out / "selection.json").exists()
    assert not list(out.glob("*.tmp"))


def test_help_enumerates_global_flags(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    for flag in ("--config", "--seed", "--epsilon", "--backend", "--out"):
        assert flag in text
    for command in ("assess", "detect", "label", "emit", "eval", "sweep",
                    "ambiguate", "verify"):
        assert command in text


def test_out_flag_overrides_workdir(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    other = tmp_path / "elsewhere"
    assert run("--config", str(config), "--out", str(other), "assess") == 0
    assert (other / "assess.jsonl").exists()


def test_seed_flag_changes_phrase_assignment(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    run_chain(config)
    labels_default = (workdir_of(config) / "labels.jsonl").read_text()
    for command in ("label", "emit"):
        assert run("--config", str(config), "--seed", "1", command) == 0
    labels_seeded = (workdir_of(config) / "labels.jsonl").read_text()
    assert labels_default != labels_seeded


def test_eval_modes_mutually_exclusive(tmp_path, capsys):
    config = write_toy_config(tmp_path / "config.json")
    with pytest.raises(SystemExit):
        main(["--config", str(config), "eval", "--strategy", "direct",
              "--predictions", "x.jsonl"])


def test_tail_lump_mode_runs_on_truncated_backend(tmp_path):
    # Default remote-style setup: the backend only exposes the top-2
    # alternatives, so the exact mode is unavailable and the tail lump
    # carries the remaining mass through the whole chain.
    config = write_toy_config(tmp_path / "config.json", truncation_mode="tail_lump",
                              backend={"top_k": 2})
    run_chain(config)
    records = [
        json.loads(l)
        for l in (workdir_of(config) / "records.jsonl").read_text().splitlines()
    ]
    assert all(r["h_query"] >= 0 for r in records)
    selection = json.loads((workdir_of(config) / "selection.json").read_text())
    assert selection["ambiguous_ids"]  # pool is non-empty under truncation


def test_eval_direct_strategy(tmp_path, capsys):
    config = write_toy_config(tmp_path / "config.json",
                              dataset=str(FIXTURES / "direct_eval.jsonl"))
    assert run("--config", str(config), "eval", "--strategy", "direct") == 0
    out = workdir_of(config)
    report = json.loads((out / "eval_direct.json").read_text())
    assert report["f1_a"] == 0.0
    assert report["counts"]["c1"] == 0
    assert report["f1_u"] > 0
    assert (out / "predictions_direct.jsonl").exists()
    assert "F1_a: 0.0000" in capsys.readouterr().out


def test_eval_ambig_aware_strategy(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--strategy", "ambig_aware") == 0
    report = json.loads((workdir_of(config) / "eval_ambig_aware.json").read_text())
    assert report["counts"]["c1"] == 4  # every ambiguous sample clarified
    assert report["counts"]["c5"] == 5
    assert report["f1_u"] == 0.0


def test_eval_sample_rep_on_deterministic_toy(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 0
    rows = [
        json.loads(l)
        for l in (workdir_of(config) / "predictions_sample_rep.jsonl")
        .read_text().splitlines()
    ]
    assert all(r["consistency"] == 1.0 for r in rows)


def test_eval_sample_rep_consistency_is_pinned_where_draws_spread(tmp_path):
    # Each question's answer is a draw at temperature 1, so every consistency
    # pins how the sample's draws are seeded: (seed, purpose, id, draw).
    dataset = tmp_path / "spread.jsonl"
    dataset.write_text("".join(
        json.dumps({"id": f"s{i}", "question": f"r{i}a r{i}b", "answers": ["x"],
                    "ambiguous": i == 3}) + "\n" for i in (1, 2, 3)))
    config = write_toy_config(tmp_path / "config.json", dataset=str(dataset),
                              backend={"fixture": str(table_path("sample_rep_spread"))})
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 0
    rows = [json.loads(line) for line in
            (workdir_of(config) / "predictions_sample_rep.jsonl").read_text().splitlines()]
    assert {row["id"]: row["consistency"] for row in rows} == {"s1": 0.7, "s2": 0.7, "s3": 0.6}
    assert all(row["greedy"] == "x" for row in rows)


def test_eval_self_ask_strategy(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--strategy", "self_ask") == 0
    report = json.loads((workdir_of(config) / "eval_self_ask.json").read_text())
    # The toy verifier says "ambiguous" exactly for clarify-answer samples:
    # s2 (gold ambiguous) and s6/s9 (gold unambiguous).
    assert report["counts"]["c1"] == 1
    assert report["counts"]["c5"] == 2


def test_eval_external_predictions_perfect(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    predictions = tmp_path / "preds.jsonl"
    samples = [json.loads(l) for l in (FIXTURES / "corpus.jsonl").read_text().splitlines()]
    rows = []
    for s in samples:
        if s.get("ambiguous"):
            rows.append({"id": s["id"], "prediction": "Please clarify your question."})
        else:
            rows.append({"id": s["id"], "prediction": s["answers"][0]})
    predictions.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert run("--config", str(config), "eval", "--predictions", str(predictions)) == 0
    report = json.loads((workdir_of(config) / "eval_predictions.json").read_text())
    assert report["f1_u"] == 1.0
    assert report["f1_a"] == 1.0


def test_eval_predictions_schema_error(tmp_path, capsys):
    config = write_toy_config(tmp_path / "config.json")
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"id": "s1"}\n')
    assert run("--config", str(config), "eval", "--predictions", str(predictions)) == 4
    assert "line 1" in capsys.readouterr().err


def test_eval_predictions_refuses_an_empty_error(tmp_path, capsys):
    # An errored line carries its message; an empty one would be read back as
    # errored but reported without one.
    config = write_toy_config(tmp_path / "config.json")
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"id": "s2", "prediction": "y"}\n'
                           '{"id": "s1", "prediction": "x", "error": ""}\n')
    assert run("--config", str(config), "eval", "--predictions", str(predictions)) == 4
    err = capsys.readouterr().err
    assert f"{predictions} line 2: field " in err and "'error' must not be empty" in err
    assert not workdir_of(config).joinpath("eval_predictions.json").exists()


def test_eval_compare_reports_mcr(tmp_path):
    samples, before, after = [], [], []
    for i in range(100):
        sid = f"m{i:03d}"
        samples.append({"id": sid, "question": f"q {sid}?", "answers": ["gold"],
                        "ambiguous": False, "source": "synthetic"})
        before.append({"id": sid, "prediction": "gold"})
        after.append({"id": sid,
                      "prediction": "Please clarify your question." if i < 7 else "gold"})
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in samples))
    before_path = tmp_path / "before.jsonl"
    before_path.write_text("".join(json.dumps(r) + "\n" for r in before))
    after_path = tmp_path / "after.jsonl"
    after_path.write_text("".join(json.dumps(r) + "\n" for r in after))
    config = write_toy_config(tmp_path / "config.json", dataset=str(dataset))
    assert run("--config", str(config), "eval",
               "--compare", str(before_path), str(after_path)) == 0
    report = json.loads((workdir_of(config) / "eval_compare.json").read_text())
    assert report["mcr"] == 0.07
    assert report["before_correct"] == 100
    assert report["shifted"] == 7


def test_eval_compare_names_the_file_with_the_torn_line(tmp_path, capsys):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    lines = "".join(json.dumps({"id": f"s{i}", "prediction": "x"}) + "\n" for i in range(1, 10))
    good.write_text(lines)
    bad.write_text(lines + "{bad")
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--compare", str(good), str(bad)) == 4
    assert f"{bad} line 10: invalid JSON" in capsys.readouterr().err


def _corpus_predictions(path: Path, ids) -> Path:
    path.write_text("".join(json.dumps({"id": i, "prediction": "x"}) + "\n" for i in ids))
    return path


@pytest.mark.parametrize("short_first", [False, True], ids=["short-after", "short-before"])
def test_eval_compare_names_the_file_missing_predictions(tmp_path, capsys, short_first):
    full = _corpus_predictions(tmp_path / "full.jsonl", (f"s{i}" for i in range(1, 10)))
    short = _corpus_predictions(tmp_path / "short.jsonl", ["s1"])
    files = [short, full] if short_first else [full, short]
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--compare", *map(str, files)) == 4
    assert f"{short}: predictions missing for sample(s): ['s2'" in capsys.readouterr().err


def test_eval_predictions_names_the_file_with_an_unknown_id(tmp_path, capsys):
    predictions = _corpus_predictions(tmp_path / "preds.jsonl",
                                      [*(f"s{i}" for i in range(1, 10)), "s99"])
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--predictions", str(predictions)) == 4
    assert (f"{predictions}: predictions for sample(s) not in the dataset: ['s99']"
            in capsys.readouterr().err)


def test_sweep_sample_rep_names_the_file_with_an_unknown_id(tmp_path, capsys):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 0
    predictions = workdir_of(config) / "predictions_sample_rep.jsonl"
    first = json.loads(predictions.read_text().splitlines()[0])
    with predictions.open("a") as fh:
        fh.write(json.dumps({**first, "id": "s99"}) + "\n")
    capsys.readouterr()
    assert run("--config", str(config), "sweep", "--sample-rep", str(predictions)) == 4
    assert (f"{predictions}: predictions for sample(s) not in the dataset: ['s99']"
            in capsys.readouterr().err)


def test_sweep_epsilon_grid(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    run("--config", str(config), "assess")
    run("--config", str(config), "detect")
    assert run("--config", str(config), "sweep") == 0
    with open(workdir_of(config) / "epsilon_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    sizes = [int(r["pool_size"]) for r in rows]
    assert [r["epsilon"] for r in rows] == ["0.1", "0.3", "0.5", "0.7", "0.9"]
    assert sizes == [3, 3, 1, 0, 0]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_sweep_single_epsilon(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    run("--config", str(config), "assess")
    run("--config", str(config), "detect")
    assert run("--config", str(config), "sweep", "--epsilons", "0.25") == 0
    with open(workdir_of(config) / "epsilon_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["pool_size"] == "3"


def test_sweep_empty_records_all_zero(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    out = workdir_of(config)
    out.mkdir(parents=True)
    (out / "records.jsonl").write_text("")
    assert run("--config", str(config), "sweep") == 0
    with open(out / "epsilon_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["pool_size"] == "0" for r in rows)


def test_eval_aggregate_reports_mean_and_stddev(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    reports = []
    for i, (f1u, f1a) in enumerate([(0.2, 0.5), (0.4, 0.7), (0.6, 0.9)]):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps({"f1_u": f1u, "f1_a": f1a, "counts": {}}))
        reports.append(str(path))
    assert run("--config", str(config), "eval", "--aggregate", *reports) == 0
    summary = json.loads((workdir_of(config) / "eval_aggregate.json").read_text())
    assert summary["n"] == 3
    assert summary["f1_u"]["mean"] == pytest.approx(0.4)
    assert summary["f1_a"]["mean"] == pytest.approx(0.7)
    # population stddev of {0.2, 0.4, 0.6}
    assert summary["f1_u"]["stddev"] == pytest.approx(0.1632993161855452)


def test_eval_aggregate_missing_metric_is_parse_error(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"f1_u": 0.5}))
    assert run("--config", str(config), "eval", "--aggregate", str(bad)) == 4


@pytest.mark.parametrize("body", [
    '{"f1_u": "x", "f1_a": 0.5}',
    '{"f1_u": null, "f1_a": 0.5}',
    '5',
    '{"f1_u": NaN, "f1_a": 0.5}',
    '{"f1_u": true, "f1_a": 0.5}',
    '{"f1_u": 7.5, "f1_a": 0.5}',
    '{"f1_u": 0.5, "f1_a": -0.25}',
    '{"f1_u": 1e308, "f1_a": 0.5}',
], ids=["text", "null", "not-an-object", "nan", "boolean", "above-1", "below-0", "huge"])
def test_eval_aggregate_mistyped_report_exits_4(tmp_path, capsys, body):
    config = write_toy_config(tmp_path / "config.json")
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    # Twice: two huge values would overflow the mean.
    assert run("--config", str(config), "eval", "--aggregate", str(bad), str(bad)) == 4
    err = capsys.readouterr().err
    assert str(bad) in err
    if body.startswith("{"):
        assert "field 'f1_" in err


def test_sweep_sample_rep_thresholds(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 0
    predictions = workdir_of(config) / "predictions_sample_rep.jsonl"
    assert run("--config", str(config), "sweep", "--sample-rep", str(predictions),
               "--thresholds", "0.5,1.0") == 0
    with open(workdir_of(config) / "sample_rep_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["threshold"] for r in rows] == ["0.5", "1.0"]
    # All consistencies are 1.0 on the deterministic toy, so no threshold
    # below/at 1.0 triggers clarifications and both rows score identically.
    assert rows[0]["f1_a"] == rows[1]["f1_a"]


@pytest.mark.parametrize("field,value", [
    ("consistency", "abc"),
    ("consistency", None),
    ("consistency", True),
    ("consistency", float("nan")),
    ("consistency", 5.0),
    ("consistency", -0.5),
    ("greedy", 5),
], ids=["consistency-text", "consistency-null", "consistency-boolean",
        "consistency-nan", "consistency-above-one", "consistency-negative", "greedy-number"])
def test_sweep_sample_rep_mistyped_field_exits_4(tmp_path, capsys, field, value):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 0
    predictions = workdir_of(config) / "predictions_sample_rep.jsonl"
    first, *rest = predictions.read_text().splitlines(keepends=True)
    row = {**json.loads(first), field: value}
    predictions.write_text(json.dumps(row) + "\n" + "".join(rest))
    capsys.readouterr()
    assert run("--config", str(config), "sweep", "--sample-rep", str(predictions)) == 4
    err = capsys.readouterr().err
    assert f"sample-rep record {row['id']!r}" in err
    assert repr(field) in err


def test_ambiguate_command(tmp_path):
    config = write_toy_config(tmp_path / "config.json",
                              dataset=str(FIXTURES / "ambiguate_input.jsonl"))
    assert run("--config", str(config), "ambiguate") == 0
    out = workdir_of(config)
    accepted = [json.loads(l) for l in (out / "ambiguated.jsonl").read_text().splitlines()]
    rejects = [json.loads(l) for l in (out / "ambiguate_rejects.jsonl").read_text().splitlines()]
    assert [r["id"] for r in accepted] == ["s1"]
    assert accepted[0]["question"] == "amb1"
    assert accepted[0]["ambiguous"] is True
    reasons = {r["id"]: r["reason"] for r in rejects}
    assert reasons == {"s2": "validation_failed", "s5": "empty_generation"}


def test_ambiguate_with_allowlist(tmp_path):
    empty_allow = tmp_path / "allow.txt"
    empty_allow.write_text("nobody\n")
    config = write_toy_config(tmp_path / "config.json",
                              dataset=str(FIXTURES / "ambiguate_input.jsonl"))
    assert run("--config", str(config), "ambiguate",
               "--allowlist", str(empty_allow)) == 0
    accepted = (workdir_of(config) / "ambiguated.jsonl").read_text().splitlines()
    assert accepted == []
    manifest = json.loads((workdir_of(config) / "manifest_ambiguate.json").read_text())
    assert manifest["inputs"] == [str(FIXTURES / "ambiguate_input.jsonl"), str(empty_allow)]


def test_ambiguate_allowlist_keeps_listed_ids_in_input_order(tmp_path):
    # Three samples the toy world accepts; the allowlist names two of them in
    # reverse input order, plus an id that is not in the dataset.
    s1 = json.loads((FIXTURES / "ambiguate_input.jsonl").read_text().splitlines()[0])
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps({**s1, "id": i}) + "\n" for i in ("a", "b", "c")))
    allow = tmp_path / "allow.txt"
    allow.write_text("c\nnobody\na\n")
    config = write_toy_config(tmp_path / "config.json", dataset=str(dataset))
    assert run("--config", str(config), "ambiguate", "--allowlist", str(allow)) == 0
    out = workdir_of(config)
    accepted = [json.loads(l) for l in (out / "ambiguated.jsonl").read_text().splitlines()]
    assert [r["id"] for r in accepted] == ["a", "c"]
    assert (out / "ambiguate_rejects.jsonl").read_text() == ""


class PeakInFlight(Backend):
    """Wraps a backend, holds each call briefly and records the peak number
    of calls in flight."""

    def __init__(self, inner: Backend):
        self.inner, self.parallelism = inner, inner.parallelism
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0

    def complete(self, prompt, params, *, echo_from=None):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.05)
            return self.inner.complete(prompt, params, echo_from=echo_from)
        finally:
            with self.lock:
                self.in_flight -= 1


def test_ambiguate_runs_parallelism_samples_at_once(tmp_path, monkeypatch):
    real = ambigkit.cli.make_backend
    backends = []

    def make_backend(spec, **kw):
        backends.append(PeakInFlight(real(spec, **kw)))
        return backends[-1]

    monkeypatch.setattr(ambigkit.cli, "make_backend", make_backend)
    config = write_toy_config(tmp_path / "config.json",
                              dataset=str(FIXTURES / "ambiguate_input.jsonl"),
                              backend={"parallelism": 3})
    assert run("--config", str(config), "ambiguate") == 0
    assert [b.peak for b in backends] == [3]


def test_ambiguate_backend_failure_exits_3_and_writes_nothing(tmp_path, monkeypatch):
    real = ambigkit.cli.make_backend
    monkeypatch.setattr(ambigkit.cli, "make_backend",
                        lambda spec, **kw: RefuseQuestion(real(spec, **kw), "q2a q2b"))
    config = write_toy_config(tmp_path / "config.json",
                              dataset=str(FIXTURES / "ambiguate_input.jsonl"))
    assert run("--config", str(config), "ambiguate") == 3
    out = workdir_of(config)
    assert not (out / "ambiguated.jsonl").exists()
    assert not (out / "ambiguate_rejects.jsonl").exists()
    assert not (out / "manifest_ambiguate.json").exists()


@pytest.mark.parametrize("argv,patch", [
    (["--seed", "7", "assess"], {"seed": 7}),
    (["--epsilon", "0.7", "assess"], {"epsilon": 0.7}),
    (["--out", "elsewhere", "assess"], {"workdir": "CWD/elsewhere"}),
    (["--backend", "toy:world.yaml", "assess"],
     {"backend": {"kind": "toy", "fixture": "CWD/world.yaml", "endpoint": None}}),
    (["--backend", "remote:http://127.0.0.1:9/v1/completions", "assess"],
     {"backend": {"kind": "remote", "endpoint": "http://127.0.0.1:9/v1/completions",
                  "fixture": None}}),
    (["label", "--kind", "generated"], {"label_kind": "generated"}),
], ids=["seed", "epsilon", "out", "backend-toy", "backend-remote", "label-kind"])
def test_flag_gives_the_config_its_file_value_gives(tmp_path, monkeypatch, argv, patch):
    monkeypatch.chdir(tmp_path)  # where a flag's relative path resolves

    def resolved(value):
        if isinstance(value, dict):
            return {key: resolved(item) for key, item in value.items()}
        return value.replace("CWD", str(tmp_path.resolve())) if isinstance(value, str) else value

    config = write_toy_config(tmp_path / "config.json")
    flagged = ambigkit.cli._start(
        ambigkit.cli.build_parser().parse_args(["--config", str(config), *argv])
    )[0]
    from_file = ambigkit.cli.load_config(write_toy_config(tmp_path / "config.json",
                                                          **resolved(patch)))
    assert flagged == from_file
    assert ambigkit.cli.config_hash(flagged) == ambigkit.cli.config_hash(from_file)


def test_non_finite_epsilon_flag_exits_2_as_the_file_value_does(tmp_path, capsys):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "--epsilon", "nan", "assess") == 2
    flagged = capsys.readouterr().err
    assert run("--config", str(write_toy_config(tmp_path / "config.json", epsilon=float("nan"))),
               "assess") == 2
    assert flagged == capsys.readouterr().err == (
        f"configuration error: bad config: {config}: "
        "field 'epsilon' must be a finite number, got nan\n")


def test_detect_warns_once_before_calling_when_no_correct_sample_can_train(
        tmp_path, capsys, monkeypatch):
    samples = [json.loads(line) for line in (FIXTURES / "corpus.jsonl").read_text().splitlines()]
    dataset = tmp_path / "corpus.jsonl"  # no prediction is a correct answer or clarification
    dataset.write_text("".join(json.dumps({**sample, "answers": ["nothing matches this"],
                                           "ambiguous": False}) + "\n" for sample in samples))
    config = write_toy_config(tmp_path / "config.json", dataset=str(dataset))
    assert run("--config", str(config), "assess") == 0
    assert "0 correct" in capsys.readouterr().out
    for name in ("generate", "score"):
        def marked(self, *args, _call=getattr(ToyBackend, name), **kwargs):
            print("backend call", file=sys.stderr)
            return _call(self, *args, **kwargs)
        monkeypatch.setattr(ToyBackend, name, marked)
    assert run("--config", str(config), "detect") == 0
    out, err = capsys.readouterr()
    assert err.count("warning: ") == 1
    assert err.index("warning: ") < err.index("backend call")
    assert (f"warning: {workdir_of(config) / 'assess.jsonl'} holds no correct sample, so "
            "`label` will refuse this run; only `sweep` can use its records" in err)
    assert out.startswith("effective seed: 0\ndisambiguated ")
    assert out.count("\n") == 2
    assert run("--config", str(config), "label") == 2


def test_detect_does_not_warn_when_a_correct_sample_can_train(tmp_path, capsys):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "assess") == 0
    assert run("--config", str(config), "detect") == 0
    assert "warning" not in capsys.readouterr().err


def test_label_kind_flag_overrides_config(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "assess") == 0
    assert run("--config", str(config), "detect") == 0
    assert run("--config", str(config), "label", "--kind", "generated") == 0
    labels = [
        json.loads(l)
        for l in (workdir_of(config) / "labels.jsonl").read_text().splitlines()
    ]
    by_id = {l["id"]: l for l in labels}
    assert by_id["s3"]["kind"] == "generated"
    assert by_id["s3"]["text"] == "clarify"
    # s4's generated request is not a clarification; falls back to fixed.
    assert by_id["s4"]["kind"] == "fixed"
    assert "fallback_fixed" in by_id["s4"]["flags"]


def test_manifests_record_config_hash(tmp_path):
    config = write_toy_config(tmp_path / "config.json")
    run_chain(config)
    out = workdir_of(config)
    manifests = sorted(p.name for p in out.glob("manifest_*.json"))
    assert manifests == [
        "manifest_assess.json", "manifest_detect.json",
        "manifest_emit.json", "manifest_label.json",
    ]
    hashes = {
        json.loads((out / m).read_text())["config_hash"] for m in manifests
    }
    assert len(hashes) == 1
    manifest = json.loads((out / "manifest_assess.json").read_text())
    assert set(manifest["template_hashes"]) == {
        "direct", "disambiguation", "clarification", "ambiguity_aware",
        "self_ask", "ambiguate", "ambiguation_validation",
    }


# -- errored samples in prediction files ------------------------------------------


@pytest.fixture()
def s1_refused(monkeypatch):
    real = ambigkit.cli.make_backend
    monkeypatch.setattr(ambigkit.cli, "make_backend",
                        lambda spec, **kw: RefuseQuestion(real(spec, **kw), "q1a q1b"))


# The request each strategy's s1 loses: its only one, the third seeded draw
# after the greedy answer (sample_rep), or the verification after the answer
# (self_ask). A sample's requests go out one after another.
@pytest.mark.parametrize("strategy, nth", [
    ("direct", 1), ("ambig_aware", 1), ("sample_rep", 4), ("self_ask", 2),
])
def test_a_sample_refused_partway_errs_alone(tmp_path, monkeypatch, strategy, nth):
    name = f"predictions_{strategy}.jsonl"
    clean = write_toy_config(tmp_path / "clean.json")
    assert run("--config", str(clean), "eval", "--strategy", strategy) == 0
    real, backends = ambigkit.cli.make_backend, []

    def refusing(spec, **kw):
        backends.append(RefuseQuestion(real(spec, **kw), "q1a q1b", nth))
        return backends[-1]

    monkeypatch.setattr(ambigkit.cli, "make_backend", refusing)
    refused = write_toy_config(tmp_path / "refused.json")
    assert run("--config", str(refused), "eval", "--strategy", strategy) == 0
    assert [b.seen for b in backends] == [nth]  # s1 sent nothing after the refusal
    clean_lines = (workdir_of(clean) / name).read_bytes().splitlines()
    refused_lines = (workdir_of(refused) / name).read_bytes().splitlines()
    assert len(refused_lines) == len(clean_lines) == 9
    for clean_line, refused_line in zip(clean_lines, refused_lines):
        if json.loads(clean_line)["id"] == "s1":
            error = "refused 'q1a q1b' (after 1 attempts)"
            assert json.loads(refused_line) == {"id": "s1", "prediction": "", "error": error}
        else:
            assert refused_line == clean_line


def test_eval_predictions_rescore_keeps_errored_samples(tmp_path, s1_refused):
    config = write_toy_config(tmp_path / "config.json")
    out = workdir_of(config)
    assert run("--config", str(config), "eval", "--strategy", "direct") == 0
    assert run("--config", str(config), "eval", "--predictions",
               str(out / "predictions_direct.jsonl")) == 0
    original = json.loads((out / "eval_direct.json").read_text())
    rescored = json.loads((out / "eval_predictions.json").read_text())
    assert original["counts"]["errored"] == 1
    for key in ("counts", "f1_u", "f1_a", "per_sample"):
        assert rescored[key] == original[key]


def test_eval_line_says_errored_samples_were_left_out(tmp_path, capsys, s1_refused):
    config = write_toy_config(tmp_path / "config.json")
    predictions = workdir_of(config) / "predictions_direct.jsonl"
    assert run("--config", str(config), "eval", "--strategy", "direct") == 0
    assert run("--config", str(config), "eval", "--predictions", str(predictions)) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "F1_u" in line]
    assert len(lines) == 2
    assert all("1 errored, left out of F1" in line for line in lines)


def test_eval_line_names_no_errored_samples_when_none_errored(tmp_path, capsys):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--strategy", "direct") == 0
    [line] = [line for line in capsys.readouterr().out.splitlines() if "F1_u" in line]
    assert "errored" not in line


def test_sweep_sample_rep_leaves_errored_samples_out(tmp_path, s1_refused):
    config = write_toy_config(tmp_path / "config.json")
    out = workdir_of(config)
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 0
    report = json.loads((out / "eval_sample_rep.json").read_text())
    assert report["counts"]["errored"] == 1
    # The config's own threshold (0.5) reproduces the generating run's scores.
    assert run("--config", str(config), "sweep", "--sample-rep",
               str(out / "predictions_sample_rep.jsonl"), "--thresholds", "0.5") == 0
    with open(out / "sample_rep_sweep.csv") as fh:
        [row] = list(csv.DictReader(fh))
    assert row["f1_u"] == f"{report['f1_u']:.6f}"
    assert row["f1_a"] == f"{report['f1_a']:.6f}"


# Every command that tolerates failed samples.
@pytest.mark.parametrize("argv", [
    ["assess"], ["detect"],
    *(["eval", "--strategy", strategy]
      for strategy in ("direct", "ambig_aware", "sample_rep", "self_ask")),
], ids=lambda argv: "-".join(argv[::2]))
def test_eval_total_outage_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    config = write_toy_config(tmp_path / "config.json")
    out = workdir_of(config)
    if argv == ["detect"]:
        assert run("--config", str(config), "assess") == 0
    before = sorted(out.glob("*"))  # no outputs, no manifest, no temporary files
    real = ambigkit.cli.make_backend
    # Every prompt contains the empty question, so every call is refused.
    monkeypatch.setattr(ambigkit.cli, "make_backend",
                        lambda spec, **kw: RefuseQuestion(real(spec, **kw), ""))
    assert run("--config", str(config), *argv) == 3
    assert "every backend call failed (" in capsys.readouterr().err
    assert sorted(out.glob("*")) == before


@pytest.mark.parametrize("patch", [
    {"epsilon": "abc"},
    {"epsilon": None},
    {"epsilon": [1]},
    {"backend": {"top_k": 0}},
    {"backend": {"top_k": -3}},
    {"backend": {"top_k": 99}},  # the fixture's vocabulary has 65 tokens
    {"sample_rep": {"threshold": 0.5, "num_samples": 0, "temperature": 1.0}},
    {"sample_rep": {"threshold": 0.5, "num_samples": 10, "temperature": -1.0}},
    {"sample_rep": {"threshold": 0.5, "num_samples": 10, "temperature": 0.0}},
    {"sample_rep": {"threshold": float("nan")}},
    {"sample_rep": {"threshold": float("inf")}},
    {"truncation_mode": "renormalize"},
    {"epsilon": True},
    {"rouge_threshold": False},
    {"seed": True},
    {"backend": {"top_k": True}},
    {"backend": {"parallelism": True}},
    {"sample_rep": {"threshold": True}},
    {"seed": 3.5},
    {"backend": {"parallelism": 2.7}},
    {"sample_rep": {"num_samples": 10.5}},
    {"seed": float("inf")},
    {"rouge_threshold": float("nan")},
    {"rouge_threshold": float("inf")},
    {"rouge_threshold": -1},
    {"rouge_threshold": 1.5},
    {"rouge_threshold": 1},  # no answer scores strictly above 1
    {"sample_rep": {"temperature": float("inf")}},
    {"workdir": None},
    {"dataset": None},
    {"workdir": 7},
    {"dataset": 7},
    {"max_tokens": 0},
    {"backend": {"model": 5}},
    {"backend": {"api_key": ["k"]}},
], ids=["epsilon-text", "epsilon-null", "epsilon-list", "top_k-0", "top_k-negative",
        "top_k-over-vocabulary", "num_samples-0", "temperature-negative", "temperature-zero",
        "threshold-nan", "threshold-inf", "truncation_mode-renormalize",
        "epsilon-true", "rouge_threshold-false", "seed-true", "top_k-true",
        "parallelism-true", "threshold-true", "seed-fraction", "parallelism-fraction",
        "num_samples-fraction", "seed-infinity", "rouge_threshold-nan", "rouge_threshold-inf",
        "rouge_threshold-negative", "rouge_threshold-above-1", "rouge_threshold-1",
        "temperature-inf", "workdir-null", "dataset-null", "workdir-number",
        "dataset-number", "max_tokens-0", "model-number", "api_key-array"])
def test_bad_config_value_exits_2(tmp_path, capsys, patch):
    config = write_toy_config(tmp_path / "config.json", **patch)
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    if {"workdir", "dataset"} & set(patch):
        assert f"{next(iter(patch))!r}" in err
        assert not (tmp_path / "None").exists()
    if {"model", "api_key"} & set(patch.get("backend", {})):
        [(key, value)] = patch["backend"].items()
        assert f"{config}: field {key!r} must be a string, got a" in err
        assert repr(value) not in err.replace(str(config), "")


@pytest.mark.parametrize("flag,grid,message", [
    ("--thresholds", "nan", "must be finite"),
    ("--thresholds", "0.5,inf", "must be finite"),
    ("--thresholds", "-inf", "must be finite"),
    ("--epsilons", "nan", "must be finite"),
    ("--epsilons", "a", "bad epsilon list: 'a'"),
    ("--epsilons", ",", "empty epsilon list"),
], ids=["thresholds-nan", "thresholds-inf", "thresholds-negative-inf", "epsilons-nan",
        "epsilons-text", "epsilons-empty"])
def test_non_finite_sweep_grid_exits_2(tmp_path, capsys, flag, grid, message):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 0
    out = workdir_of(config)
    sample_rep = ["--sample-rep", str(out / "predictions_sample_rep.jsonl")]
    argv = [*(sample_rep if flag == "--thresholds" else []), f"{flag}={grid}"]
    assert run("--config", str(config), "sweep", *argv) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*_sweep.csv"))


@pytest.mark.parametrize("argv,flag", [
    (["--thresholds", "0.5"], "--thresholds"),
    (["--sample-rep", "PREDICTIONS", "--epsilons", "0.3"], "--epsilons"),
], ids=["thresholds-without-sample-rep", "epsilons-with-sample-rep"])
def test_sweep_flag_of_the_other_sweep_exits_2(tmp_path, capsys, argv, flag):
    config = write_toy_config(tmp_path / "config.json")
    # With both sweeps' inputs in place, nothing but the stray flag can fail.
    for command in (["assess"], ["detect"], ["eval", "--strategy", "sample_rep"]):
        assert run("--config", str(config), *command) == 0
    out = workdir_of(config)
    predictions = str(out / "predictions_sample_rep.jsonl")
    argv = [predictions if arg == "PREDICTIONS" else arg for arg in argv]
    assert run("--config", str(config), "sweep", *argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and flag in err
    assert not list(out.glob("*_sweep.csv"))


@pytest.mark.parametrize("argv,flag", [
    (["ambiguate", "--allowlist", ""], "--allowlist"),
    (["eval", "--predictions", ""], "--predictions"),
    (["eval", "--report", ""], "--report"),
    (["sweep", "--epsilons", ""], "--epsilons"),
    (["sweep", "--sample-rep", "PREDICTIONS", "--thresholds", ""], "--thresholds"),
    (["sweep", "--sample-rep", ""], "--sample-rep"),
    (["sweep", "--out-csv", ""], "--out-csv"),
    (["--out", "", "assess"], "--out"),
    (["verify", ""], "path"),
], ids=["allowlist", "predictions", "report", "epsilons", "thresholds", "sample-rep",
        "out-csv", "out", "verify-path"])
def test_empty_flag_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)  # where an empty path would resolve
    config = write_toy_config(tmp_path / "config.json")
    # With every input in place, an empty flag read as absent would succeed.
    run_chain(config)
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 0
    out = workdir_of(config)
    before = sorted(tmp_path.rglob("*"))
    argv = [str(out / "predictions_sample_rep.jsonl") if arg == "PREDICTIONS" else arg
            for arg in argv]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("--config", str(config), *argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must not be empty" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("mode", ["predictions", "compare", "sample-rep"])
def test_predictions_for_samples_not_in_the_dataset_exit_4(tmp_path, capsys, mode):
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 0
    out = workdir_of(config)
    recorded = out / "predictions_sample_rep.jsonl"
    extra = tmp_path / "extra.jsonl"
    stray = {**json.loads(recorded.read_text().splitlines()[0]), "id": "not-in-dataset"}
    extra.write_text(recorded.read_text() + json.dumps(stray) + "\n")
    argv = {
        "predictions": ["eval", "--predictions", str(extra)],
        "compare": ["eval", "--compare", str(recorded), str(extra)],
        "sample-rep": ["sweep", "--sample-rep", str(extra)],
    }[mode]
    written = sorted(out.iterdir())
    capsys.readouterr()
    assert run("--config", str(config), *argv) == 4
    assert "not-in-dataset" in capsys.readouterr().err
    assert sorted(out.iterdir()) == written


@pytest.mark.parametrize("strategy", ["apa_infogain", "gt_max_infogain"])
def test_label_refuses_records_outside_the_assessed_split(tmp_path, capsys, strategy):
    config = write_toy_config(tmp_path / "config.json", strategy=strategy)
    for command in ("assess", "detect"):
        assert run("--config", str(config), command) == 0
    records = workdir_of(config) / "records.jsonl"
    stray = {**json.loads(records.read_text().splitlines()[0]), "id": "foreign"}
    with open(records, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(stray) + "\n")
    capsys.readouterr()
    assert run("--config", str(config), "label") == 4
    err = capsys.readouterr().err
    assert "'foreign'" in err and "run `ambigkit detect` again" in err
    assert not (workdir_of(config) / "labels.jsonl").exists()


NOT_UTF8 = b'{"id": "s1", "question": "caf\xe9"}\n'
TABLE_HEAD = b"order: 2\nbegin_marker: <s>\nend_marker: </s>\nvocabulary: [a, b]\n"


@pytest.mark.parametrize("content,patch,command,code", [
    (None, {}, ["ambiguate", "--allowlist", "FILE"], 2),
    (None, {}, ["eval", "--predictions", "FILE"], 2),
    (None, {}, ["eval", "--compare", "FILE", "FILE"], 2),
    (None, {}, ["eval", "--aggregate", "FILE"], 2),
    (None, {}, ["sweep", "--sample-rep", "FILE"], 2),
    (None, {}, ["verify", "FILE"], 2),
    (None, {"dataset": "FILE"}, ["assess"], 2),
    (None, {"backend": {"fixture": "FILE"}}, ["assess"], 2),
    (NOT_UTF8, {"dataset": "FILE"}, ["assess"], 4),
    (NOT_UTF8, {}, ["eval", "--predictions", "FILE"], 4),
    (NOT_UTF8, {}, ["verify", "FILE"], 4),
    (NOT_UTF8, {}, ["--config", "FILE", "assess"], 2),
    (b"order: [2,\n", {"backend": {"fixture": "FILE"}}, ["assess"], 4),
    (b"order: two\n", {"backend": {"fixture": "FILE"}}, ["assess"], 4),
    (TABLE_HEAD + b"rows: [1, 2]\n", {"backend": {"fixture": "FILE"}}, ["assess"], 4),
    (TABLE_HEAD + b"rows: {a: [b]}\n", {"backend": {"fixture": "FILE"}}, ["assess"], 4),
], ids=["allowlist", "predictions", "compare", "aggregate", "sample-rep", "verify",
        "dataset", "fixture", "dataset-not-utf8", "predictions-not-utf8",
        "verify-not-utf8", "config-not-utf8", "fixture-not-yaml", "fixture-bad-order",
        "fixture-rows-list", "fixture-row-list"])
def test_unreadable_input_file_exits_2_or_4(tmp_path, capsys, monkeypatch,
                                           content, patch, command, code):
    """A missing file (content None) exits 2, and a file that is not UTF-8
    or a malformed fixture exits 4, except a config, which exits 2. Each
    names the file, and none makes a backend call."""
    target = tmp_path / "input"
    if content is not None:
        target.write_bytes(content)

    def fill(value):
        return str(target) if value == "FILE" else value

    config = write_toy_config(tmp_path / "config.json", **{
        key: {k: fill(v) for k, v in value.items()} if isinstance(value, dict) else fill(value)
        for key, value in patch.items()
    })

    def no_call(self, *args, **kwargs):
        raise AssertionError("backend called")

    monkeypatch.setattr(ToyBackend, "generate", no_call)
    monkeypatch.setattr(ToyBackend, "score", no_call)
    assert run("--config", str(config), *map(fill, command)) == code
    assert str(target) in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    (json.dumps({"id": "b", "question": " ", "answers": ["y"]}),
     "sample b: question must not be blank"),
    (json.dumps({"id": "", "question": "q?", "answers": ["y"]}), "sample id must be non-empty"),
    (json.dumps({"id": "b", "question": "q?", "answers": ["y"], "ambiguous": "yes"}),
     "field 'ambiguous' must be a boolean"),
    ("[1]", "record is not a JSON object"),
    (json.dumps({"id": "b", "question": "q?", "answers": ["y"], "ambigous": True}),
     "unknown field(s) 'ambigous'"),
], ids=["blank-question", "empty-id", "ambiguous-text", "not-an-object", "misspelt-key"])
def test_bad_dataset_line_exits_4_naming_the_file_and_line(tmp_path, capsys, line, message):
    # The blank second line is skipped but counted, so the bad line is line 3.
    first = (FIXTURES / "corpus.jsonl").read_text().splitlines()[0]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(f"{first}\n\n{line}\n")
    config = write_toy_config(tmp_path / "config.json", dataset=str(dataset))
    assert run("--config", str(config), "assess") == 4
    assert f"{dataset} line 3: {message}" in capsys.readouterr().err


TOY_TABLE = {"order": 2, "begin_marker": "<s>", "end_marker": "</s>",
             "vocabulary": ["<s>", "a", "</s>"], "rows": {"<s>": {"a": 1}, "a": {"</s>": 1}}}


# The YAML fixtures below name a table that JSON cannot: unquoted YAML
# words and numbers read as booleans and numbers, never as tokens.
TOY_TABLE_YAML = """\
order: 2
begin_marker: "<s>"
end_marker: "</s>"
vocabulary: ["<s>", "a", "</s>"{extra}]
rows:
  "<s>": {{{row}}}
"""


@pytest.mark.parametrize("table,message", [
    ({**TOY_TABLE, "order": 0}, ""),
    ({**TOY_TABLE, "vocabulary": ["<s>", "a", "a", "</s>"]}, ""),
    ({**TOY_TABLE, "end_marker": "</e>"}, ""),
    ({**TOY_TABLE, "rows": {"z": {"a": 1}}}, ""),
    ({**TOY_TABLE, "rows": {"<s> a": {"a": 1}}}, ""),
    ({**TOY_TABLE, "rows": {"<s>": {"a": 1.5, "</s>": -0.5}}}, ""),
    ({**TOY_TABLE, "rows": {"<s>": {"a": "1/0"}}}, ""),
    ({**TOY_TABLE, "rows": {"<s>": {"a": [1]}}}, ""),
    ([TOY_TABLE], ""),
    ({key: value for key, value in TOY_TABLE.items() if key != "order"}, ""),
    ({**TOY_TABLE, "rows": {"<s>": {"zebra": 1}}}, ""),
    ({key: value for key, value in TOY_TABLE.items() if key != "rows"}
     | {"row": TOY_TABLE["rows"]}, "unknown field(s) 'row'"),
    ({**TOY_TABLE, "order": 2.9}, "field 'order' must be an integer, got 2.9"),
    ({**TOY_TABLE, "order": "2"}, "field 'order' must be an integer, got '2'"),
    ({**TOY_TABLE, "begin_marker": 1, "vocabulary": ["1", "a", "</s>"],
      "rows": {"1": {"a": 1}, "a": {"</s>": 1}}},
     "field 'begin_marker' must be a string, got a number"),
    (TOY_TABLE_YAML.format(extra=", yes", row="a: 1"),
     "field 'vocabulary' must be a list of strings"),
    (TOY_TABLE_YAML.format(extra=', "1"', row="a: 1") + "  1: {a: 1}\n",
     "fixture row key 1 must be a string"),
    (TOY_TABLE_YAML.format(extra=', "False"', row="a: 1/2, no: 1/2"),
     "token not in vocabulary: False"),
    (TOY_TABLE_YAML.format(extra="", row="a: true"), "bad probability True in row '<s>'"),
    (TOY_TABLE_YAML.format(extra="", row='a: .nan, "</s>": 1'),
     "bad probability nan in row '<s>'"),
    ({**TOY_TABLE, "rows": False}, "fixture rows must be a mapping"),
    ({**TOY_TABLE, "rows": []}, "fixture rows must be a mapping"),
    ({**TOY_TABLE, "rows": {**TOY_TABLE["rows"], "<s>": False}},
     "fixture row '<s>' must be a mapping"),
], ids=["order-0", "repeated-token", "end-marker-not-in-vocabulary",
        "row-key-not-in-vocabulary", "row-key-too-long", "negative-probability",
        "probability-division-by-zero", "probability-list", "document-list", "order-missing",
        "row-token-not-in-vocabulary", "rows-misspelt", "order-fraction", "order-text", "begin-marker-number",
        "vocabulary-boolean", "row-key-number", "row-token-boolean", "probability-boolean",
        "probability-nan", "rows-false", "rows-list", "row-false"])
def test_malformed_toy_fixture_exits_4_naming_it(tmp_path, capsys, table, message):
    """Each fixture is refused naming itself, and the field at fault where
    ``message`` gives it: a fixture whose fields coercion would turn into
    another table."""
    fixture = tmp_path / "table.yaml"
    fixture.write_text(table if isinstance(table, str) else json.dumps(table))  # JSON is YAML
    config = write_toy_config(tmp_path / "config.json")
    assert run("--config", str(config), "--backend", f"toy:{fixture}", "assess") == 4
    assert f"data integrity error: {fixture}: {message}" in capsys.readouterr().err


def test_template_without_its_slot_marker_exits_4_naming_the_file(tmp_path, capsys):
    templates = tmp_path / "templates"
    shutil.copytree(FIXTURES / "toy_templates", templates)
    (templates / "direct.txt").write_text("Q: A:")
    config = write_toy_config(tmp_path / "config.json", template_dir=str(templates))
    assert run("--config", str(config), "assess") == 4
    assert (f"{templates / 'direct.txt'}: template 'direct': marker '<question>'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("content,message", [
    (NOT_UTF8, "{path}: not UTF-8 text"),
    (b'{"id": "s1"}\n{torn', "{path} line 2: invalid JSON"),
    (b"", "{path}: no records"),
], ids=["not-utf8", "torn-line", "empty"])
def test_verify_prints_a_file_failure_without_line_0(tmp_path, capsys, content, message):
    path = tmp_path / "sft.jsonl"
    path.write_bytes(content)
    assert run("--config", str(write_toy_config(tmp_path / "config.json")), "verify",
               str(path)) == 4
    err = capsys.readouterr().err
    assert f"  {message.format(path=path)}" in err
    assert "line 0" not in err


@pytest.mark.parametrize("endpoint,flag", [
    (None, "--backend=remote:127.0.0.1:9/v1/completions"),
    (5, None),
    ("ftp://127.0.0.1:9/v1/completions", None),
    ("http:///v1/completions", None),
    ("http://127.0.0.1:port/v1/completions", None),
], ids=["flag-no-scheme", "number", "ftp", "no-host", "bad-port"])
def test_malformed_remote_endpoint_exits_2(tmp_path, capsys, endpoint, flag):
    patch = {} if endpoint is None else {"backend": {"kind": "remote", "endpoint": endpoint}}
    config = write_toy_config(tmp_path / "config.json", **patch)
    argv = ["--config", str(config), *([flag] if flag else []), "assess"]
    assert run(*argv) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("api_key", "ключ"),
    ("api_key", "sk-1\r\nX-Extra: 1"),
    ("endpoint", "http://127.0.0.1:9/v1/complétions"),
    ("endpoint", "http://127.0.0.1:9/v1/completions?user=é"),
], ids=["api_key-not-ascii", "api_key-crlf", "endpoint-path-not-ascii",
        "endpoint-query-not-ascii"])
def test_backend_value_http_cannot_send_exits_2(tmp_path, capsys, key, value):
    # Refused at load, naming the setting but not the value; http.client
    # would otherwise raise outside BackendError on the first request.
    backend = {"kind": "remote", "endpoint": "http://127.0.0.1:9/v1/completions", key: value}
    config = write_toy_config(tmp_path / "config.json", backend=backend)
    assert run("--config", str(config), "assess") == 2
    err = capsys.readouterr().err
    assert f"configuration error: backend {key!r} " in err
    assert value not in err
    assert not workdir_of(config).exists()  # stopped before any stage began


@pytest.fixture(scope="module")
def chain_workdir(tmp_path_factory) -> Path:
    """A workdir holding the toy chain's checkpoints up to labels.jsonl, and
    predictions_direct.jsonl."""
    tmp_path = tmp_path_factory.mktemp("chain")
    config = write_toy_config(tmp_path / "config.json")
    for command in (["assess"], ["detect"], ["label"], ["eval", "--strategy", "direct"]):
        assert run("--config", str(config), *command) == 0
    return workdir_of(config)


def patched_chain(tmp_path: Path, chain_workdir: Path, name: str, patch: dict):
    """A config whose workdir is a copy of ``chain_workdir`` with ``patch``
    applied to the first line of ``name``, and that line as it was."""
    config = write_toy_config(tmp_path / "config.json")
    out = workdir_of(config)
    shutil.copytree(chain_workdir, out)
    first, *rest = (out / name).read_text().splitlines(keepends=True)
    (out / name).write_text(json.dumps({**json.loads(first), **patch}) + "\n" + "".join(rest))
    return config, json.loads(first)


@pytest.mark.parametrize("name,patch,command", [
    ("assess.jsonl", {"category": "x"}, ["detect"]),
    ("assess.jsonl", {"category": 9}, ["detect"]),
    ("assess.jsonl", {"prediction": None}, ["detect"]),
    ("records.jsonl", {"h_query": None}, ["label"]),
    ("records.jsonl", {"flags": "abc"}, ["label"]),
    ("records.jsonl", {"verdict": "maybe"}, ["label"]),
    ("assess.jsonl", {"id": "nope"}, ["detect"]),
    ("labels.jsonl", {"flags": "abc"}, ["emit"]),
    ("labels.jsonl", {"flags": 5}, ["emit"]),
    ("predictions_direct.jsonl", {"flags": "abc"},
     ["eval", "--predictions", "predictions_direct.jsonl"]),
], ids=["category-text", "category-9", "prediction-null", "h_query-null",
        "records-flags-text", "records-verdict-unknown", "assess-id-not-in-dataset",
        "labels-flags-text", "labels-flags-number", "predictions-flags-text"])
def test_mistyped_checkpoint_field_exits_4(tmp_path, capsys, chain_workdir,
                                          name, patch, command):
    config, _ = patched_chain(tmp_path, chain_workdir, name, patch)
    out = workdir_of(config)
    argv = [str(out / arg) if arg.endswith(".jsonl") else arg for arg in command]
    assert run("--config", str(config), *argv) == 4
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("name,patch,command,message", [
    ("records.jsonl", {"info_gain": 0.0}, ["label"],
     "record {id}: info_gain 0.0 != h_query - h_disambig"),
    ("labels.jsonl", {"text": ""}, ["emit"], "label for {id}: empty text"),
    ("labels.jsonl", {"kind": "generated", "text": "Paris"}, ["emit"],
     "label for {id}: not a clarification request"),
], ids=["records-info-gain-not-the-difference", "labels-text-empty",
        "labels-generated-not-a-clarification"])
def test_inconsistent_checkpoint_record_exits_4_naming_the_sample(
        tmp_path, capsys, chain_workdir, name, patch, command, message):
    config, first = patched_chain(tmp_path, chain_workdir, name, patch)
    assert run("--config", str(config), *command) == 4
    where = workdir_of(config) / name
    assert f"{where} line 1: {message.format(id=first['id'])}" in capsys.readouterr().err


# A valid strategy and epsilon: each JSON-object body below has one fault,
# which the message names after the file.
GOOD_HEAD = '"strategy": "apa_infogain", "epsilon": 0.1'


@pytest.mark.parametrize("body,fault", [
    ('{not json', "invalid JSON"),
    ('[1,2]', "not a JSON object"),
    (f'{{{GOOD_HEAD}, "correct_ids": 5, "ambiguous_ids": []}}', "field 'correct_ids' must be"),
    (f'{{{GOOD_HEAD}, "correct_ids": []}}', "missing field 'ambiguous_ids'"),
    # s5 is incorrect (category 4): its gold answer is no correct pair.
    (f'{{{GOOD_HEAD}, "correct_ids": ["s1", "s5"], "ambiguous_ids": ["s3", "s4"]}}',
     "selection names sample 's5' outside its half"),
    (f'{{{GOOD_HEAD}, "correct_ids": ["s1", "nope"], "ambiguous_ids": ["s3", "s4"]}}',
     "selection names sample 'nope' outside its half"),
    (f'{{{GOOD_HEAD}, "epsilom": 1, "correct_ids": ["s1", "s2"], "ambiguous_ids": ["s3", "s4"]}}',
     "unknown field(s) 'epsilom'"),
    ('{"strategy": "plain", "epsilon": 0.1, "correct_ids": ["s1", "s2"], '
     '"ambiguous_ids": ["s3", "s4"]}', "field 'strategy': 'plain' is not one of"),
    ('{"strategy": "apa_infogain", "epsilon": "0.1", "correct_ids": ["s1", "s2"], '
     '"ambiguous_ids": ["s3", "s4"]}', "field 'epsilon' must be a finite number"),
    (f'{{{GOOD_HEAD}, "correct_ids": ["s1"], "ambiguous_ids": ["s3", "s4"]}}',
     "unbalanced halves: 1 correct vs 2 ambiguous"),
], ids=["not-json", "not-an-object", "ids-not-a-list", "ids-missing",
        "correct-id-in-the-incorrect-split", "unknown-id", "unknown-key", "unknown-strategy",
        "epsilon-not-a-number", "unbalanced"])
def test_malformed_selection_exits_4(tmp_path, capsys, chain_workdir, body, fault):
    config = write_toy_config(tmp_path / "config.json")
    out = workdir_of(config)
    shutil.copytree(chain_workdir, out)
    (out / "selection.json").write_text(body)
    assert run("--config", str(config), "emit") == 4
    assert f"{out / 'selection.json'}: {fault}" in capsys.readouterr().err
    assert not (out / "sft.jsonl").exists()


def test_selected_sample_without_a_label_exits_4(tmp_path, capsys, chain_workdir):
    config = write_toy_config(tmp_path / "config.json")
    out = workdir_of(config)
    shutil.copytree(chain_workdir, out)
    path = out / "labels.jsonl"
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    assert run("--config", str(config), "emit") == 4
    assert f"{path}: no clarification label for sample(s) ['s4']" in capsys.readouterr().err
    assert not (out / "sft.jsonl").exists()


def test_selection_naming_an_id_twice_exits_4(tmp_path, capsys, chain_workdir):
    # Both halves stay two long, so only the repeat is wrong: emitting it
    # would write an sft.jsonl that verify refuses.
    config = write_toy_config(tmp_path / "config.json")
    out = workdir_of(config)
    shutil.copytree(chain_workdir, out)
    path = out / "selection.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "correct_ids": ["s1", "s1"]}))
    assert run("--config", str(config), "emit") == 4
    assert f"{path}: duplicate id 's1'" in capsys.readouterr().err
    assert not (out / "sft.jsonl").exists()


@pytest.mark.parametrize("name,patch,command", [
    ("labels.jsonl", {"flag": ["fallback_fixed"]}, ["emit"]),
    ("records.jsonl", {"gain": 0.5}, ["label"]),
    ("assess.jsonl", {"categroy": 3}, ["detect"]),
], ids=["labels", "records", "assess"])
def test_checkpoint_key_no_field_names_exits_4_naming_the_line(
        tmp_path, capsys, chain_workdir, name, patch, command):
    config, _ = patched_chain(tmp_path, chain_workdir, name, patch)
    assert run("--config", str(config), *command) == 4
    where = workdir_of(config) / name
    assert f"{where} line 1: unknown field(s) {next(iter(patch))!r}" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ({"id": "s1", "error": ""}, "field 'error' must not be empty"),
    ({"id": "nope", "error": "refused"}, "sample 'nope' not in the dataset"),
], ids=["empty-error", "errored-id-not-in-dataset"])
def test_bad_errored_assess_line_exits_4_naming_the_line(tmp_path, capsys, chain_workdir,
                                                         line, message):
    config = write_toy_config(tmp_path / "config.json")
    out = workdir_of(config)
    shutil.copytree(chain_workdir, out)
    path = out / "assess.jsonl"
    path.write_text(json.dumps(line) + "\n" + "".join(path.read_text().splitlines(True)[1:]))
    assert run("--config", str(config), "detect") == 4
    assert f"{path} line 1: {message}" in capsys.readouterr().err


def test_non_string_label_kind_exits_4_naming_the_line(tmp_path, capsys, chain_workdir):
    config, _ = patched_chain(tmp_path, chain_workdir, "labels.jsonl", {"kind": 1})
    assert run("--config", str(config), "emit") == 4
    where = workdir_of(config) / "labels.jsonl"
    assert f"{where} line 1: field 'kind' must be a string, got a number" in (
        capsys.readouterr().err)


def unanswered_s2_config(tmp_path: Path) -> Path:
    """The toy config on a copy of the corpus where s2 has no answer. s2 is
    gold ambiguous, so it may have none, and the model clarifies it:
    category 1, in the correct split, training on its clarification."""
    samples = [json.loads(line) for line in (FIXTURES / "corpus.jsonl").read_text().splitlines()]
    for sample in samples:
        if sample["id"] == "s2":
            sample["answers"] = []
    dataset = tmp_path / "corpus.jsonl"
    dataset.write_text("".join(json.dumps(sample) + "\n" for sample in samples))
    return write_toy_config(tmp_path / "config.json", dataset=str(dataset))


def test_correct_sample_without_an_answer_trains_on_its_clarification(tmp_path):
    """A clarified sample's answers never reach sft.jsonl, so taking them away
    changes no byte of it."""
    answered = write_toy_config(tmp_path / "answered.json")
    config = unanswered_s2_config(tmp_path)
    sft = run_chain(config)
    selection = json.loads((workdir_of(config) / "selection.json").read_text())
    assert selection["correct_ids"] == ["s1", "s2"]
    assert sft.read_bytes() == run_chain(answered).read_bytes()
    assert run("--config", str(config), "verify") == 0


def test_selection_naming_an_unanswered_correct_sample_exits_4(tmp_path, capsys):
    """An unanswered correct sample has no detection record, so a selection
    that names it in the ambiguous half is refused."""
    config = unanswered_s2_config(tmp_path)
    run_chain(config)
    path = workdir_of(config) / "selection.json"
    path.write_text(json.dumps({**json.loads(path.read_text()),
                                "correct_ids": ["s1"], "ambiguous_ids": ["s2"]}))
    capsys.readouterr()
    assert run("--config", str(config), "emit") == 4
    err = capsys.readouterr().err
    assert f"{path}: selection names sample 's2' outside its half" in err


@pytest.mark.parametrize("sample_id,patch,line,category,gold", [
    ("s1", {"ambiguous": True}, 1, 3, "false"),
    ("s2", {"ambiguous": None, "answers": []}, 2, 1, "true"),
    ("s3", {"ambiguous": None}, 3, 2, "true"),
], ids=["answered-made-ambiguous", "clarified-unlabelled-unanswered", "incorrect-unlabelled"])
@pytest.mark.parametrize("command", ["detect", "label", "emit"])
def test_assess_line_whose_gold_label_changed_exits_4(tmp_path, capsys, chain_workdir, command,
                                                      sample_id, patch, line, category, gold):
    """A dataset edited after ``assess`` is refused where assess.jsonl is
    read: a clarified sample left with no label and no answer never reaches
    ``emit``, and a gold-label strategy never meets a sample without one."""
    samples = [json.loads(text) for text in (FIXTURES / "corpus.jsonl").read_text().splitlines()]
    for sample in samples:
        if sample["id"] == sample_id:
            sample.update(patch)  # a None value drops its key
    dataset = tmp_path / "corpus.jsonl"
    dataset.write_text("".join(json.dumps({key: value for key, value in sample.items()
                                           if value is not None}) + "\n" for sample in samples))
    config = write_toy_config(tmp_path / "config.json", dataset=str(dataset),
                              strategy="gt_random")
    shutil.copytree(chain_workdir, workdir_of(config))
    assert run("--config", str(config), command) == 4
    assert (f"{workdir_of(config) / 'assess.jsonl'} line {line}: sample {sample_id!r}: "
            f'category {category} needs "ambiguous": {gold} in the dataset; '
            "run `ambigkit assess` again") in capsys.readouterr().err
    assert not (workdir_of(config) / "sft.jsonl").exists()


# SHA-256 of the selection.json that `label` writes for each strategy on the
# toy chain's checkpoints.
PINNED_SELECTIONS = {
    "apa_infogain": "eda5bf87430d2797c33934c33ec81be6d611b1177eccea435174984206ea8dbf",
    "gt_random": "cae7c7190c184f03dca6638fe4a95b25b9b543db879296d0cd37389e6badf789",
    "gt_max_infogain": "a0e82449aa85d263b0235942b75094c3187bd13d251544db89f073137b2f396c",
    "gt_min_infogain": "8858000a10f72a9754d18fb6872ba965617a8d3385b45f607e45be1b3b77b985",
    "answer_entropy": "e853728ce31be3c24d895ce2411911add21743058f46240b538bb33ad7bfac6d",
}


@pytest.mark.parametrize("strategy", list(PINNED_SELECTIONS))
def test_selection_is_pinned_for_every_strategy(tmp_path, chain_workdir, strategy):
    config = write_toy_config(tmp_path / "config.json", strategy=strategy)
    out = workdir_of(config)
    shutil.copytree(chain_workdir, out)
    assert run("--config", str(config), "label") == 0
    digest = hashlib.sha256((out / "selection.json").read_bytes()).hexdigest()
    assert digest == PINNED_SELECTIONS[strategy]


# s2 is gold ambiguous and the model clarifies it (category 1): its line in
# the toy chain's sft.jsonl, under every strategy and label kind.
S2_LINE = ('{"id": "s2", "prompt": "Q: q2a q2b\\nA:", "completion": "Please clarify your '
           'question.", "source": "correct", "clarify_kind": "fixed"}')


@pytest.mark.parametrize("kind", ["fixed", "generated"])
@pytest.mark.parametrize("strategy", list(PINNED_SELECTIONS))
def test_correct_line_trains_on_what_handling_its_sample_correctly_means(
        tmp_path, chain_workdir, strategy, kind):
    """A gold-ambiguous correct sample trains on a canonical clarification,
    whatever the label kind, and every other correct sample on its first
    gold answer."""
    config = write_toy_config(tmp_path / "config.json", strategy=strategy)
    out = workdir_of(config)
    shutil.copytree(chain_workdir, out)
    for command in (["label", "--kind", kind], ["emit"], ["verify"]):
        assert run("--config", str(config), *command) == 0, command
    samples = {sample["id"]: sample for sample in map(
        json.loads, (FIXTURES / "corpus.jsonl").read_text().splitlines())}
    lines = (out / "sft.jsonl").read_text().splitlines()
    correct = [row for row in map(json.loads, lines) if row["source"] == "correct"]
    assert {row["id"] for row in correct} == {"s1", "s2"}
    for row in correct:
        sample = samples[row["id"]]
        if sample["ambiguous"]:
            assert (row["completion"], row["clarify_kind"]) in (
                (phrase, "fixed") for phrase in FIXED_CLARIFICATIONS)
        else:
            assert (row["completion"], row["clarify_kind"]) == (sample["answers"][0], None)
    assert S2_LINE in lines


# The benchmark's setup path: what a remote run loads before its first request.
_REMOTE_SETUP = ("import ambigkit.cli\n"
                 "from ambigkit.config import load_config, make_backend\n"
                 "from ambigkit.corpus import load_templates\n"
                 "config = load_config(sys.argv[1])\n"
                 "make_backend(config.backend).close()\n"
                 "load_templates(config.template_dir)\n")


@pytest.mark.parametrize("steps, unloaded", [
    ("import ambigkit.cli", ["ambigkit.toy", "yaml"]),
    (_REMOTE_SETUP, ["requests", "urllib3", "yaml", "ambigkit.toy", "concurrent.futures",
                     "statistics"]),
    # config sits below the stages: it declares every setting type it names.
    ("import ambigkit.config", [f"ambigkit.{name}"
                                for name in ("corpus", "evalkit", "pipeline", "sft", "cli")]),
], ids=["cli", "remote-setup", "config"])
def test_import_loads_no_module_it_does_not_need(tmp_path, steps, unloaded):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"backend": {"kind": "remote",
                                              "endpoint": "https://127.0.0.1:9/v1"},
                                  "dataset": "data.jsonl"}))
    src = Path(ambigkit.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = f"import sys\n{steps}\nprint(sorted(set(sys.argv[2:]) & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe, str(config), *unloaded], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# -- pinned toy-chain bytes -----------------------------------------------------------

# SHA-256 of every file the toy chain below writes. A manifest is hashed with
# the run's directories, in its recorded config and its outputs alike, and the
# backend's parallelism masked, and so its config hash, which hashes them.
PINNED_OUTPUTS = {
    "assess.jsonl": "876d9d8ebf6b0ad4fe263dce250127b709edfb55e3248041894dd7b47dcec969",
    "epsilon_sweep.csv": "7a91b9c3788758c750eceae463959492a665fd54c7b85704a9931a9ec519e807",
    "eval_aggregate.json": "5d5f362090c2aea7f8c1654c258c38f7a04ca37511cc18ac87f47e97c8e75fde",
    "eval_ambig_aware.json": "6305219de4d66597d4dedc5dfcee9cedc9f03d42cadc926d4c72f1935a4b0cf3",
    "eval_compare.json": "bc38edace147af3d22554585ca93eb2401ee5cbff38f610d9a51aa33ba5c6541",
    "eval_direct.json": "07dab731a230c72ce4e007e52343497c38fc8c89039e92a1f2d8bed4a9985813",
    "eval_predictions.json": "6305219de4d66597d4dedc5dfcee9cedc9f03d42cadc926d4c72f1935a4b0cf3",
    "eval_sample_rep.json": "07dab731a230c72ce4e007e52343497c38fc8c89039e92a1f2d8bed4a9985813",
    "eval_self_ask.json": "66c06fa0de32750b2ffe105143efe7712e09621c484cb4f46822787d0b6c3348",
    "labels.jsonl": "8516ff11234efcf68d7a123e8e1890b9951845ba31572adb930b3ec3a1ec0c66",
    "manifest_assess.json": "9933643f38e3b4d217561a07a708281de29d3a30cb8a03b080a39467076f59ee",
    "manifest_detect.json": "8f84e83b186999025c2b29228524bdd6ee5332ed87f91c0f64426f5b01ed19b8",
    "manifest_emit.json": "9ad7a9f256a0877317db1dd2e11e2dc6ca5a4c2c81fbdcaf2dc9f770b6833da5",
    "manifest_eval_aggregate.json": "f58fc2f5e0c9ced5ef24a035af48d475836b989187af0ce9e7428c087553d067",
    "manifest_eval_compare.json": "c388a4b514a6300b4dcf98eb21cd720fe04e5a9e17ae4ae23856985d5e9f71f5",
    "manifest_eval_ambig_aware.json": "2c4e13ea5426252245376e15b5fcdc20a85d6c426be34cfcb3f432ec0da925fb",
    "manifest_eval_direct.json": "201b4ef72ab035072748a3f7d7a6768a6a1297ef940ca4361df21985ee8b7223",
    "manifest_eval_predictions.json": "7cac8d0fd154d335c3ef15b7ffcec7dc4be3b14a489ab9e08bcb6fdd73157263",
    "manifest_eval_sample_rep.json": "d6e9c5b763870cdbe295a2bf95280c82447cbb254f43ca85074347f86e637642",
    "manifest_eval_self_ask.json": "4e07d09c7b3927bb1fa85601d22c1ea639cdf2dfa85e10870baae76ddb25e35e",
    "manifest_label.json": "0e4fb769d9b243538bf69f51c594fc17333ad8dde16f677031c18994b4e2ee04",
    "manifest_sweep_epsilon.json": "3413f576a6dbaa654e48970538de6153cbdf7db11796870cc40155b0bf5e3b25",
    "manifest_sweep_sample_rep.json": "158eb8ab8ee15c6a8656dfbfc98980c0d06765e4384af6fbc177c68e733a3dcd",
    "manifest_verify.json": "efa342799988a3ab75f0da16ef7c58c6e8a52efdb27dee2de51ce0c5901627ff",
    "predictions_ambig_aware.jsonl": "3ca3cecf9e657ac3e2a3b28893d3e6db0c9342b7ca9260ed0fbcf1ec7b1abd94",
    "predictions_direct.jsonl": "eb5095f8abcbc723803ca764b07393f6c8ed3cedcdb16f1e91ee944b08244829",
    "predictions_sample_rep.jsonl": "9a63f74ce697caa757f3ee6f4e6269cdb5554005f8006317a57759b7d4ad1e99",
    "predictions_self_ask.jsonl": "68d2464a8722550137c5eca7929ceca31f7363f56898b77eae7581c6452fe998",
    "records.jsonl": "c22247b8ce6c84996fef5ef699b7125f67503eb9772e5b5eff6999a5d9bc1c48",
    "sample_rep_sweep.csv": "4b79ea13f399b2841ed2f09c1c53f5596c68caf00db43e818b987fae690655c0",
    "selection.json": "eda5bf87430d2797c33934c33ec81be6d611b1177eccea435174984206ea8dbf",
    "sft.jsonl": "99488454d1dca8343a326f4641dff3bd8cb33f347e3d921ac01cfcbe578e2fca",
}


# The same for the files `ambiguate` writes on tests/fixtures/ambiguate_input.jsonl.
PINNED_AMBIGUATE_OUTPUTS = {
    "ambiguate_rejects.jsonl": "143927138c15b9eb42b2bb7300df8b11b4ce79fc7033f94e7e082eebb42d4e7e",
    "ambiguated.jsonl": "882f34a7b42dfd55f9cb40cd6b00553305c0476bf14859687bbb7ec07a57ba64",
    "manifest_ambiguate.json": "23448f57a7afd20c21991efdb32c5717bd67b55a46f8b6b47ab45694b0061557",
}


def _pinned_bytes(path: Path, out: Path) -> bytes:
    if not path.name.startswith("manifest_"):
        return path.read_bytes()
    text = path.read_text(encoding="utf-8")
    text = text.replace(str(out), "<out>").replace(str(FIXTURES), "<fixtures>")
    text = re.sub(r'"config_hash": "[0-9a-f]{64}"', '"config_hash": "<hash>"', text)
    text = re.sub(r'"parallelism": \d+', '"parallelism": "<n>"', text)
    return text.encode("utf-8")


def test_build_chain_outputs_depend_on_neither_parallelism_nor_input_order(tmp_path):
    """The determinism contract: each draw is keyed by seed, purpose and
    sample id, so neither the number of samples in flight nor the order of
    the dataset changes what the chain decides or emits."""
    reversed_dataset = tmp_path / "reversed.jsonl"
    lines = (FIXTURES / "corpus.jsonl").read_text().splitlines(keepends=True)
    reversed_dataset.write_text("".join(reversed(lines)))
    runs = [
        write_toy_config(tmp_path / "p1.json", backend={"parallelism": 1}),
        write_toy_config(tmp_path / "p8.json", backend={"parallelism": 8}),
        write_toy_config(tmp_path / "reversed.json", dataset=str(reversed_dataset)),
    ]
    outputs = []
    for config in runs:
        sft, out = run_chain(config), workdir_of(config)
        selection = json.loads((out / "selection.json").read_text())
        outputs.append((
            {name: sorted((out / name).read_text().splitlines())
             for name in ("assess.jsonl", "records.jsonl", "labels.jsonl")},
            sft.read_bytes(),
            {key: set(selection[key]) for key in ("correct_ids", "ambiguous_ids")},
        ))
    assert outputs[0][1]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_growing_the_dataset_changes_no_shared_sample_line(tmp_path):
    """Each draw is keyed by sample id, so samples added to the dataset leave
    every line of the samples it already held byte-equal."""
    lines = (FIXTURES / "corpus.jsonl").read_text().splitlines(keepends=True)
    grown = tmp_path / "grown.jsonl"
    grown.write_text("".join(lines) + "".join(
        json.dumps({**json.loads(line), "id": f"new{i}"}) + "\n"
        for i, line in enumerate(lines[:3])))
    names = ("assess.jsonl", "records.jsonl", "predictions_sample_rep.jsonl",
             "predictions_self_ask.jsonl")
    runs = []
    for config in (write_toy_config(tmp_path / "base.json"),
                   write_toy_config(tmp_path / "grown.json", dataset=str(grown))):
        for command in (["assess"], ["detect"], ["eval", "--strategy", "sample_rep"],
                        ["eval", "--strategy", "self_ask"]):
            assert run("--config", str(config), *command) == 0, command
        runs.append({name: {json.loads(line)["id"]: line for line in
                            (workdir_of(config) / name).read_text().splitlines()}
                     for name in names})
    base, after = runs
    for name in names:
        assert len(after[name]) > len(base[name]) > 0, name
        assert {sid: after[name].get(sid) for sid in base[name]} == base[name], name


def run_toy_chain(config: Path) -> Path:
    """Run every build, verify, eval and sweep command on ``config``; the workdir."""
    out = workdir_of(config)
    commands = [
        ["assess"], ["detect"], ["label", "--kind", "generated"], ["emit"], ["verify"],
        *(["eval", "--strategy", s]
          for s in ("direct", "ambig_aware", "sample_rep", "self_ask")),
        ["eval", "--predictions", str(out / "predictions_ambig_aware.jsonl")],
        ["eval", "--compare", str(out / "predictions_direct.jsonl"),
         str(out / "predictions_self_ask.jsonl")],
        ["eval", "--aggregate", str(out / "eval_direct.json"), str(out / "eval_self_ask.json")],
        ["sweep"],
        ["sweep", "--sample-rep", str(out / "predictions_sample_rep.jsonl")],
    ]
    for command in commands:
        assert run("--config", str(config), *command) == 0, command
    return out


def test_toy_chain_outputs_are_pinned(tmp_path):
    out = run_toy_chain(write_toy_config(tmp_path / "config.json"))
    digests = {
        path.name: hashlib.sha256(_pinned_bytes(path, out)).hexdigest()
        for path in sorted(out.iterdir())
    }
    assert digests == PINNED_OUTPUTS


def test_every_manifest_records_the_config_it_hashes(tmp_path):
    """A manifest's ``config`` reads back as the command's effective config,
    the API key left out, and ``config_hash`` is the hash of what it reads."""
    config = write_toy_config(tmp_path / "config.json", backend={"api_key": "sk-toy"})
    out = run_toy_chain(config)
    effective = load_config(config)
    effective = replace(effective, backend=replace(effective.backend, api_key=None))
    manifests = sorted(out.glob("manifest_*.json"))
    assert [path.name for path in manifests] == sorted(
        name for name in PINNED_OUTPUTS if name.startswith("manifest_"))
    for path in manifests:
        manifest = json.loads(path.read_text())
        settings = record_from(RunConfig, manifest["config"])
        assert settings == (replace(effective, label_kind=LabelKind.GENERATED)
                            if manifest["command"] == "label" else effective), path.name
        assert config_hash(settings) == manifest["config_hash"], path.name


def test_manifests_name_existing_files_and_reports_hold_scores_only(tmp_path):
    """A report's settings are its manifest's, which names the files the
    command read and wrote: the report holds none."""
    out = run_toy_chain(write_toy_config(tmp_path / "config.json"))
    for path in out.glob("manifest_*.json"):
        manifest = json.loads(path.read_text())
        assert manifest["inputs"], path.name
        for listed in manifest["inputs"] + manifest["outputs"]:
            assert Path(listed).is_file(), (path.name, listed)
    for name in ("direct", "ambig_aware", "sample_rep", "self_ask", "predictions"):
        report = json.loads((out / f"eval_{name}.json").read_text())
        assert list(report) == ["counts", "f1_u", "f1_a", "per_sample"], name


@pytest.mark.parametrize("parallelism", [1, 4])
def test_ambiguate_outputs_are_pinned(tmp_path, parallelism):
    config = write_toy_config(tmp_path / "config.json",
                              dataset=str(FIXTURES / "ambiguate_input.jsonl"),
                              backend={"parallelism": parallelism})
    out = workdir_of(config)
    assert run("--config", str(config), "ambiguate") == 0
    digests = {
        path.name: hashlib.sha256(_pinned_bytes(path, out)).hexdigest()
        for path in sorted(out.iterdir())
    }
    assert digests == PINNED_AMBIGUATE_OUTPUTS
