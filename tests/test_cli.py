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
from pathlib import Path

import pytest

import ambigkit.cli
from ambigkit.backend import Backend
from ambigkit.cli import main
from ambigkit.errors import TransportError
from ambigkit.sft import verify as sft_verify
from ambigkit.toy import ToyBackend

from conftest import FIXTURES


def make_config(tmp_path: Path, **patches) -> Path:
    config = json.loads((FIXTURES / "toy_config.json").read_text())
    config["backend"]["fixture"] = str(FIXTURES / "tables" / "corpus_world.yaml")
    config["dataset"] = str(FIXTURES / "corpus.jsonl")
    config["template_dir"] = str(FIXTURES / "toy_templates")
    config["workdir"] = str(tmp_path / "out")
    backend_patches = patches.pop("backend", {})
    config["backend"].update(backend_patches)
    config.update(patches)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def run(*argv: str) -> int:
    return main(list(argv))


def run_chain(config: Path, *extra: str) -> Path:
    for command in ("assess", "detect", "label", "emit"):
        assert run("--config", str(config), *extra, command) == 0
    return json.loads(config.read_text())["workdir"] / Path("sft.jsonl")


def workdir_of(config: Path) -> Path:
    return Path(json.loads(config.read_text())["workdir"])


def test_full_chain_produces_balanced_sft(tmp_path, capsys):
    config = make_config(tmp_path)
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
    config = make_config(tmp_path)
    run_chain(config)
    selection = json.loads((workdir_of(config) / "selection.json").read_text())
    assert selection["ambiguous_ids"] == ["s3", "s4"]  # descending gain
    assert set(selection["correct_ids"]) == {"s1", "s2"}


def test_emit_rerun_byte_identical(tmp_path):
    config = make_config(tmp_path)
    run_chain(config)
    sft_path = workdir_of(config) / "sft.jsonl"
    first = sft_path.read_bytes()
    assert run("--config", str(config), "emit") == 0
    assert sft_path.read_bytes() == first


def test_detect_pool_shrinks_with_epsilon(tmp_path):
    config = make_config(tmp_path)
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


def test_missing_checkpoint_names_prerequisite(tmp_path, capsys):
    config = make_config(tmp_path)
    assert run("--config", str(config), "detect") == 2
    assert "ambigkit assess" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert run("--config", str(tmp_path / "nope.json"), "assess") == 2


def test_unknown_config_key_exits_2(tmp_path):
    config = make_config(tmp_path, bogus_key=1)
    assert run("--config", str(config), "assess") == 2


def test_unreachable_backend_exits_3(tmp_path):
    config = make_config(tmp_path)
    code = run(
        "--config", str(config),
        "--backend", "remote:http://127.0.0.1:9/v1/completions",
        "assess",
    )
    assert code == 3


def test_verify_corrupted_file_exits_4(tmp_path):
    config = make_config(tmp_path)
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
    config = make_config(tmp_path)
    run_chain(config)
    assert run("--config", str(config), "verify") == 0


def test_failed_label_leaves_no_partial_checkpoint(tmp_path):
    config = make_config(tmp_path, epsilon=0.9)
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
    config = make_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert run("--config", str(config), "--out", str(other), "assess") == 0
    assert (other / "assess.jsonl").exists()


def test_seed_flag_changes_phrase_assignment(tmp_path):
    config = make_config(tmp_path)
    run_chain(config)
    labels_default = (workdir_of(config) / "labels.jsonl").read_text()
    for command in ("label", "emit"):
        assert run("--config", str(config), "--seed", "1", command) == 0
    labels_seeded = (workdir_of(config) / "labels.jsonl").read_text()
    assert labels_default != labels_seeded


def test_eval_modes_mutually_exclusive(tmp_path, capsys):
    config = make_config(tmp_path)
    with pytest.raises(SystemExit):
        main(["--config", str(config), "eval", "--strategy", "direct",
              "--predictions", "x.jsonl"])


def test_tail_lump_mode_runs_on_truncated_backend(tmp_path):
    # Default remote-style setup: the backend only exposes the top-2
    # alternatives, so the exact mode is unavailable and the tail lump
    # carries the remaining mass through the whole chain.
    config = make_config(
        tmp_path, truncation_mode="tail_lump", backend={"top_k": 2}
    )
    run_chain(config)
    records = [
        json.loads(l)
        for l in (workdir_of(config) / "records.jsonl").read_text().splitlines()
    ]
    assert all(r["h_query"] >= 0 for r in records)
    selection = json.loads((workdir_of(config) / "selection.json").read_text())
    assert selection["ambiguous_ids"]  # pool is non-empty under truncation


def test_eval_direct_strategy(tmp_path, capsys):
    config = make_config(tmp_path, dataset=str(FIXTURES / "direct_eval.jsonl"))
    assert run("--config", str(config), "eval", "--strategy", "direct") == 0
    out = workdir_of(config)
    report = json.loads((out / "eval_direct.json").read_text())
    assert report["f1_a"] == 0.0
    assert report["counts"]["c1"] == 0
    assert report["f1_u"] > 0
    assert (out / "predictions_direct.jsonl").exists()
    assert "F1_a: 0.0000" in capsys.readouterr().out


def test_eval_ambig_aware_strategy(tmp_path):
    config = make_config(tmp_path)
    assert run("--config", str(config), "eval", "--strategy", "ambig_aware") == 0
    report = json.loads((workdir_of(config) / "eval_ambig_aware.json").read_text())
    assert report["counts"]["c1"] == 4  # every ambiguous sample clarified
    assert report["counts"]["c5"] == 5
    assert report["f1_u"] == 0.0


def test_eval_sample_rep_on_deterministic_toy(tmp_path):
    config = make_config(tmp_path)
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 0
    rows = [
        json.loads(l)
        for l in (workdir_of(config) / "predictions_sample_rep.jsonl")
        .read_text().splitlines()
    ]
    assert all(r["consistency"] == 1.0 for r in rows)


def test_eval_self_ask_strategy(tmp_path):
    config = make_config(tmp_path)
    assert run("--config", str(config), "eval", "--strategy", "self_ask") == 0
    report = json.loads((workdir_of(config) / "eval_self_ask.json").read_text())
    # The toy verifier says "ambiguous" exactly for clarify-answer samples:
    # s2 (gold ambiguous) and s6/s9 (gold unambiguous).
    assert report["counts"]["c1"] == 1
    assert report["counts"]["c5"] == 2


def test_eval_external_predictions_perfect(tmp_path):
    config = make_config(tmp_path)
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
    config = make_config(tmp_path)
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"id": "s1"}\n')
    assert run("--config", str(config), "eval", "--predictions", str(predictions)) == 4
    assert "line 1" in capsys.readouterr().err


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
    config = make_config(tmp_path, dataset=str(dataset))
    assert run("--config", str(config), "eval",
               "--compare", str(before_path), str(after_path)) == 0
    report = json.loads((workdir_of(config) / "eval_compare.json").read_text())
    assert report["mcr"] == 0.07
    assert report["before_correct"] == 100
    assert report["shifted"] == 7


def test_sweep_epsilon_grid(tmp_path):
    config = make_config(tmp_path)
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
    config = make_config(tmp_path)
    run("--config", str(config), "assess")
    run("--config", str(config), "detect")
    assert run("--config", str(config), "sweep", "--epsilons", "0.25") == 0
    with open(workdir_of(config) / "epsilon_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["pool_size"] == "3"


def test_sweep_empty_records_all_zero(tmp_path):
    config = make_config(tmp_path)
    out = workdir_of(config)
    out.mkdir(parents=True)
    (out / "records.jsonl").write_text("")
    assert run("--config", str(config), "sweep") == 0
    with open(out / "epsilon_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["pool_size"] == "0" for r in rows)


def test_eval_aggregate_reports_mean_and_stddev(tmp_path):
    config = make_config(tmp_path)
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
    config = make_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"f1_u": 0.5}))
    assert run("--config", str(config), "eval", "--aggregate", str(bad)) == 4


@pytest.mark.parametrize("body", [
    '{"f1_u": "x", "f1_a": 0.5}',
    '{"f1_u": null, "f1_a": 0.5}',
    '5',
    '{"f1_u": NaN, "f1_a": 0.5}',
    '{"f1_u": true, "f1_a": 0.5}',
], ids=["text", "null", "not-an-object", "nan", "boolean"])
def test_eval_aggregate_mistyped_report_exits_4(tmp_path, capsys, body):
    config = make_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    assert run("--config", str(config), "eval", "--aggregate", str(bad)) == 4
    assert str(bad) in capsys.readouterr().err


def test_sweep_sample_rep_thresholds(tmp_path):
    config = make_config(tmp_path)
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
    ("greedy", 5),
], ids=["consistency-text", "consistency-null", "consistency-boolean",
        "consistency-nan", "greedy-number"])
def test_sweep_sample_rep_mistyped_field_exits_4(tmp_path, capsys, field, value):
    config = make_config(tmp_path)
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
    config = make_config(tmp_path, dataset=str(FIXTURES / "ambiguate_input.jsonl"))
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
    config = make_config(tmp_path, dataset=str(FIXTURES / "ambiguate_input.jsonl"))
    assert run("--config", str(config), "ambiguate",
               "--allowlist", str(empty_allow)) == 0
    accepted = (workdir_of(config) / "ambiguated.jsonl").read_text().splitlines()
    assert accepted == []


def test_ambiguate_allowlist_keeps_listed_ids_in_input_order(tmp_path):
    # Three samples the toy world accepts; the allowlist names two of them in
    # reverse input order, plus an id that is not in the dataset.
    s1 = json.loads((FIXTURES / "ambiguate_input.jsonl").read_text().splitlines()[0])
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps({**s1, "id": i}) + "\n" for i in ("a", "b", "c")))
    allow = tmp_path / "allow.txt"
    allow.write_text("c\nnobody\na\n")
    config = make_config(tmp_path, dataset=str(dataset))
    assert run("--config", str(config), "ambiguate", "--allowlist", str(allow)) == 0
    out = workdir_of(config)
    accepted = [json.loads(l) for l in (out / "ambiguated.jsonl").read_text().splitlines()]
    assert [r["id"] for r in accepted] == ["a", "c"]
    assert (out / "ambiguate_rejects.jsonl").read_text() == ""


class PeakInFlight(Backend):
    """Wraps a backend, holds each generation briefly and records the peak
    number of generations in flight."""

    def __init__(self, inner: Backend):
        self.inner, self.parallelism = inner, inner.parallelism
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0

    def generate(self, prompt, params):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.05)
            return self.inner.generate(prompt, params)
        finally:
            with self.lock:
                self.in_flight -= 1

    def score(self, text, context=""):
        return self.inner.score(text, context)


def test_ambiguate_runs_parallelism_samples_at_once(tmp_path, monkeypatch):
    real = ambigkit.cli.make_backend
    backends = []

    def make_backend(spec, **kw):
        backends.append(PeakInFlight(real(spec, **kw)))
        return backends[-1]

    monkeypatch.setattr(ambigkit.cli, "make_backend", make_backend)
    config = make_config(tmp_path, dataset=str(FIXTURES / "ambiguate_input.jsonl"),
                         backend={"parallelism": 3})
    assert run("--config", str(config), "ambiguate") == 0
    assert [b.peak for b in backends] == [3]


def test_ambiguate_backend_failure_exits_3_and_writes_nothing(tmp_path, monkeypatch):
    real = ambigkit.cli.make_backend
    monkeypatch.setattr(ambigkit.cli, "make_backend",
                        lambda spec, **kw: RefuseQuestion(real(spec, **kw), "q2a q2b"))
    config = make_config(tmp_path, dataset=str(FIXTURES / "ambiguate_input.jsonl"))
    assert run("--config", str(config), "ambiguate") == 3
    out = workdir_of(config)
    assert not (out / "ambiguated.jsonl").exists()
    assert not (out / "ambiguate_rejects.jsonl").exists()
    assert not (out / "manifest_ambiguate.json").exists()


def test_label_kind_flag_overrides_config(tmp_path):
    config = make_config(tmp_path)
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
    config = make_config(tmp_path)
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


class RefuseQuestion(Backend):
    """Wraps a backend and refuses every generation whose prompt contains
    ``question``, as a server refusing one sample's requests would."""

    def __init__(self, inner: Backend, question: str):
        self.inner, self.question = inner, question
        self.parallelism = inner.parallelism

    def generate(self, prompt, params):
        if self.question in prompt:
            raise TransportError(f"refused {self.question!r}", 1)
        return self.inner.generate(prompt, params)

    def score(self, text, context=""):
        return self.inner.score(text, context)


@pytest.fixture()
def s1_refused(monkeypatch):
    real = ambigkit.cli.make_backend
    monkeypatch.setattr(ambigkit.cli, "make_backend",
                        lambda spec, **kw: RefuseQuestion(real(spec, **kw), "q1a q1b"))


def test_eval_predictions_rescore_keeps_errored_samples(tmp_path, s1_refused):
    config = make_config(tmp_path)
    out = workdir_of(config)
    assert run("--config", str(config), "eval", "--strategy", "direct") == 0
    assert run("--config", str(config), "eval", "--predictions",
               str(out / "predictions_direct.jsonl")) == 0
    original = json.loads((out / "eval_direct.json").read_text())
    rescored = json.loads((out / "eval_predictions.json").read_text())
    assert original["counts"]["errored"] == 1
    for key in ("counts", "f1_u", "f1_a", "per_sample"):
        assert rescored[key] == original[key]


def test_sweep_sample_rep_leaves_errored_samples_out(tmp_path, s1_refused):
    config = make_config(tmp_path)
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


def test_eval_total_outage_exits_3_and_writes_nothing(tmp_path, monkeypatch):
    real = ambigkit.cli.make_backend
    # Every prompt contains the empty question, so every call is refused.
    monkeypatch.setattr(ambigkit.cli, "make_backend",
                        lambda spec, **kw: RefuseQuestion(real(spec, **kw), ""))
    config = make_config(tmp_path)
    out = workdir_of(config)
    assert run("--config", str(config), "eval", "--strategy", "direct") == 3
    assert not (out / "eval_direct.json").exists()
    assert not (out / "predictions_direct.jsonl").exists()
    assert not (out / "manifest_eval_direct.json").exists()


@pytest.mark.parametrize("patch", [
    {"epsilon": "abc"},
    {"epsilon": None},
    {"epsilon": [1]},
    {"backend": {"top_k": 0}},
    {"backend": {"top_k": -3}},
    {"backend": {"top_k": 99}},  # the fixture's vocabulary has 65 tokens
    {"sample_rep": {"threshold": 0.5, "num_samples": 0, "temperature": 1.0}},
    {"sample_rep": {"threshold": 0.5, "num_samples": 10, "temperature": -1.0}},
    {"sample_rep": {"threshold": float("nan")}},
    {"sample_rep": {"threshold": float("inf")}},
], ids=["epsilon-text", "epsilon-null", "epsilon-list", "top_k-0", "top_k-negative",
        "top_k-over-vocabulary", "num_samples-0", "temperature-negative",
        "threshold-nan", "threshold-inf"])
def test_bad_config_value_exits_2(tmp_path, capsys, patch):
    config = make_config(tmp_path, **patch)
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,grid", [
    ("--thresholds", "nan"),
    ("--thresholds", "0.5,inf"),
    ("--thresholds", "-inf"),
    ("--epsilons", "nan"),
], ids=["thresholds-nan", "thresholds-inf", "thresholds-negative-inf", "epsilons-nan"])
def test_non_finite_sweep_grid_exits_2(tmp_path, capsys, flag, grid):
    config = make_config(tmp_path)
    assert run("--config", str(config), "eval", "--strategy", "sample_rep") == 0
    out = workdir_of(config)
    sample_rep = ["--sample-rep", str(out / "predictions_sample_rep.jsonl")]
    argv = [*(sample_rep if flag == "--thresholds" else []), f"{flag}={grid}"]
    assert run("--config", str(config), "sweep", *argv) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not list(out.glob("*_sweep.csv"))


NOT_UTF8 = b'{"id": "s1", "question": "caf\xe9"}\n'


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
], ids=["allowlist", "predictions", "compare", "aggregate", "sample-rep", "verify",
        "dataset", "fixture", "dataset-not-utf8", "predictions-not-utf8",
        "verify-not-utf8", "config-not-utf8", "fixture-not-yaml", "fixture-bad-order"])
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

    config = make_config(tmp_path, **{
        key: {k: fill(v) for k, v in value.items()} if isinstance(value, dict) else fill(value)
        for key, value in patch.items()
    })

    def no_call(self, *args, **kwargs):
        raise AssertionError("backend called")

    monkeypatch.setattr(ToyBackend, "generate", no_call)
    monkeypatch.setattr(ToyBackend, "score", no_call)
    assert run("--config", str(config), *map(fill, command)) == code
    assert str(target) in capsys.readouterr().err


@pytest.mark.parametrize("endpoint,flag", [
    (None, "--backend=remote:127.0.0.1:9/v1/completions"),
    (5, None),
    ("ftp://127.0.0.1:9/v1/completions", None),
    ("http:///v1/completions", None),
    ("http://127.0.0.1:port/v1/completions", None),
], ids=["flag-no-scheme", "number", "ftp", "no-host", "bad-port"])
def test_malformed_remote_endpoint_exits_2(tmp_path, capsys, endpoint, flag):
    patch = {} if endpoint is None else {"backend": {"kind": "remote", "endpoint": endpoint}}
    config = make_config(tmp_path, **patch)
    argv = ["--config", str(config), *([flag] if flag else []), "assess"]
    assert run(*argv) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def chain_workdir(tmp_path_factory) -> Path:
    """A workdir holding the toy chain's checkpoints up to labels.jsonl, and
    predictions_direct.jsonl."""
    tmp_path = tmp_path_factory.mktemp("chain")
    config = make_config(tmp_path)
    for command in (["assess"], ["detect"], ["label"], ["eval", "--strategy", "direct"]):
        assert run("--config", str(config), *command) == 0
    return workdir_of(config)


@pytest.mark.parametrize("name,patch,command", [
    ("assess.jsonl", {"category": "x"}, ["detect"]),
    ("assess.jsonl", {"category": 9}, ["detect"]),
    ("assess.jsonl", {"prediction": None}, ["detect"]),
    ("records.jsonl", {"h_query": None}, ["label"]),
    ("records.jsonl", {"flags": "abc"}, ["label"]),
    ("labels.jsonl", {"flags": "abc"}, ["emit"]),
    ("labels.jsonl", {"flags": 5}, ["emit"]),
    ("predictions_direct.jsonl", {"flags": "abc"},
     ["eval", "--predictions", "predictions_direct.jsonl"]),
], ids=["category-text", "category-9", "prediction-null", "h_query-null",
        "records-flags-text", "labels-flags-text", "labels-flags-number",
        "predictions-flags-text"])
def test_mistyped_checkpoint_field_exits_4(tmp_path, capsys, chain_workdir,
                                          name, patch, command):
    config = make_config(tmp_path)
    out = workdir_of(config)
    shutil.copytree(chain_workdir, out)
    first, *rest = (out / name).read_text().splitlines(keepends=True)
    (out / name).write_text(json.dumps({**json.loads(first), **patch}) + "\n" + "".join(rest))
    argv = [str(out / arg) if arg.endswith(".jsonl") else arg for arg in command]
    assert run("--config", str(config), *argv) == 4
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    '{not json',
    '[1,2]',
    '{"correct_ids": 5, "ambiguous_ids": []}',
    '{"correct_ids": []}',
], ids=["not-json", "not-an-object", "ids-not-a-list", "ids-missing"])
def test_malformed_selection_exits_4(tmp_path, capsys, chain_workdir, body):
    config = make_config(tmp_path)
    out = workdir_of(config)
    shutil.copytree(chain_workdir, out)
    (out / "selection.json").write_text(body)
    assert run("--config", str(config), "emit") == 4
    assert str(out / "selection.json") in capsys.readouterr().err


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
    config = make_config(tmp_path, strategy=strategy)
    out = workdir_of(config)
    shutil.copytree(chain_workdir, out)
    assert run("--config", str(config), "label") == 0
    digest = hashlib.sha256((out / "selection.json").read_bytes()).hexdigest()
    assert digest == PINNED_SELECTIONS[strategy]


def test_cli_import_loads_neither_toy_backend_nor_yaml():
    src = Path(ambigkit.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys, ambigkit.cli; "
             "print(sorted({'ambigkit.toy', 'yaml'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# -- pinned toy-chain bytes -----------------------------------------------------------

# SHA-256 of every file the toy chain below writes. Manifests are hashed with
# the run's directories and its path-dependent config hash masked.
PINNED_OUTPUTS = {
    "assess.jsonl": "876d9d8ebf6b0ad4fe263dce250127b709edfb55e3248041894dd7b47dcec969",
    "epsilon_sweep.csv": "7a91b9c3788758c750eceae463959492a665fd54c7b85704a9931a9ec519e807",
    "eval_ambig_aware.json": "51a8845adba3c04d72b5bd9d38dbcb97c25fb6982a7e5ffe4a7064af58441677",
    "eval_compare.json": "bc38edace147af3d22554585ca93eb2401ee5cbff38f610d9a51aa33ba5c6541",
    "eval_direct.json": "5a2d81de9ec90b36edc46b8757af8c0bb6276f9e4f63b49dabc4f57b7dd6af37",
    "eval_sample_rep.json": "585aa23518b26cde71ade24c708e6d73aeb672f2c6d445f7d46a9eaba42ebda4",
    "eval_self_ask.json": "f9c0644d8b09baa0905a5926c0f1f1b7ca3cebd48407878ff2f2133ae0a6c162",
    "labels.jsonl": "8516ff11234efcf68d7a123e8e1890b9951845ba31572adb930b3ec3a1ec0c66",
    "manifest_assess.json": "dd32d645b89240ecee0b5250e759525e81441bf16ebbe906d59a3b5c65c099ec",
    "manifest_detect.json": "050cf3e39a899d275f97f4f5ff2e8377abe090bb418d3255f9b8b68be29a6c92",
    "manifest_emit.json": "38661b4b38b61c7cfd7024e53bee667eae0fd5d25522f83562b62189886c27c5",
    "manifest_eval_ambig_aware.json": "521f263c33500203d13205c0da644aaf88e0b28c0459c88572facd2debe66bed",
    "manifest_eval_direct.json": "4c29e0f5431a0ca367bee94593b8e09f998f11348b24360973b88fc0a516d966",
    "manifest_eval_sample_rep.json": "d730eb1aa283c1d6c8bd4253f8f7e6f4ba31d2fe746ca5059a6428fe85841254",
    "manifest_eval_self_ask.json": "1b1528fb64006c0c1be8d84c819fb25880cf7ceecf78812bad9bd954ef94fd5b",
    "manifest_label.json": "e574a1ca6c2106bccb4dd323d988e742403578d07185b84c4460f3d582a95f59",
    "predictions_ambig_aware.jsonl": "3ca3cecf9e657ac3e2a3b28893d3e6db0c9342b7ca9260ed0fbcf1ec7b1abd94",
    "predictions_direct.jsonl": "eb5095f8abcbc723803ca764b07393f6c8ed3cedcdb16f1e91ee944b08244829",
    "predictions_sample_rep.jsonl": "9a63f74ce697caa757f3ee6f4e6269cdb5554005f8006317a57759b7d4ad1e99",
    "predictions_self_ask.jsonl": "68d2464a8722550137c5eca7929ceca31f7363f56898b77eae7581c6452fe998",
    "records.jsonl": "c22247b8ce6c84996fef5ef699b7125f67503eb9772e5b5eff6999a5d9bc1c48",
    "sample_rep_sweep.csv": "4b79ea13f399b2841ed2f09c1c53f5596c68caf00db43e818b987fae690655c0",
    "selection.json": "eda5bf87430d2797c33934c33ec81be6d611b1177eccea435174984206ea8dbf",
    "sft.jsonl": "ea34cf7c740d7bab1c1318417e9ddf218b970a629fb1157ce92ae5a4843890bf",
}


# The same for the files `ambiguate` writes on tests/fixtures/ambiguate_input.jsonl.
PINNED_AMBIGUATE_OUTPUTS = {
    "ambiguate_rejects.jsonl": "143927138c15b9eb42b2bb7300df8b11b4ce79fc7033f94e7e082eebb42d4e7e",
    "ambiguated.jsonl": "882f34a7b42dfd55f9cb40cd6b00553305c0476bf14859687bbb7ec07a57ba64",
    "manifest_ambiguate.json": "ca599de4402d36dd2db2f31cb6ed803b2a9568dc65fe81bf2b9b1d805cbecabd",
}


def _pinned_bytes(path: Path, out: Path) -> bytes:
    if not path.name.startswith("manifest_"):
        return path.read_bytes()
    text = path.read_text(encoding="utf-8")
    text = text.replace(str(out), "<out>").replace(str(FIXTURES), "<fixtures>")
    text = re.sub(r'"config_hash": "[0-9a-f]{64}"', '"config_hash": "<hash>"', text)
    return text.encode("utf-8")


def test_toy_chain_outputs_are_pinned(tmp_path):
    config = make_config(tmp_path)
    out = workdir_of(config)
    commands = [
        ["assess"], ["detect"], ["label", "--kind", "generated"], ["emit"],
        *(["eval", "--strategy", s]
          for s in ("direct", "ambig_aware", "sample_rep", "self_ask")),
        ["eval", "--compare", str(out / "predictions_direct.jsonl"),
         str(out / "predictions_self_ask.jsonl")],
        ["sweep"],
        ["sweep", "--sample-rep", str(out / "predictions_sample_rep.jsonl")],
    ]
    for command in commands:
        assert run("--config", str(config), *command) == 0, command
    digests = {
        path.name: hashlib.sha256(_pinned_bytes(path, out)).hexdigest()
        for path in sorted(out.iterdir())
    }
    assert digests == PINNED_OUTPUTS


@pytest.mark.parametrize("parallelism", [1, 4])
def test_ambiguate_outputs_are_pinned(tmp_path, parallelism):
    config = make_config(tmp_path, dataset=str(FIXTURES / "ambiguate_input.jsonl"),
                         backend={"parallelism": parallelism})
    out = workdir_of(config)
    assert run("--config", str(config), "ambiguate") == 0
    digests = {
        path.name: hashlib.sha256(_pinned_bytes(path, out)).hexdigest()
        for path in sorted(out.iterdir())
    }
    assert digests == PINNED_AMBIGUATE_OUTPUTS
