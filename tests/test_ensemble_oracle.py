"""A multi-model, multi-config, multi-run log audited end to end and checked
against the benchmark's independent oracle.

``bench/gen.py`` writes the log and ``bench/oracle.py`` recomputes config
choice, run merging, overlap and the mask from it with json and numpy only.
Both are loaded read-only: nothing under ``bench/`` is written, bytecode
included.
"""

import csv
import json
import shutil

import numpy as np
import pytest

from bench_modules import load_bench_module
from haraudit.cli import main
from haraudit.pipeline import audit_records
from haraudit.predictions import MERGE_POLICIES, filter_to_configs, model_metrics, read_records

LOG = {"dataset": "oracle", "models": ["cnn", "lstm", "mlp"], "configs": ["cfg-a", "cfg-b"],
       "runs": 3, "accuracy": [0.7, 0.92], "hard_share": 0.05, "hard_accuracy": 0.05}

gen = load_bench_module("gen")
oracle = load_bench_module("oracle")


def run(out, *argv):
    assert main([*argv, "--out", str(out)]) == 0, argv


def library_audit(out, policy):
    """The audit the way the benchmark's library path calls it, and the metrics
    the benchmark computes from it."""
    meta = json.loads((out / "windows_meta.json").read_text(encoding="utf-8"))
    with open(out / "windows.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    bounds = np.asarray([(int(r["start_sample"]), int(r["end_sample"])) for r in rows])
    labels = [int(r["label"]) for r in rows]
    records = read_records(out / "predictions.jsonl", valid_window_ids=range(len(labels)),
                           num_classes=meta["num_classes"])
    result = audit_records(records, bounds, labels, meta["total_samples"],
                           num_classes=meta["num_classes"], merge_policy=policy)
    return result, model_metrics(filter_to_configs(records, result.chosen_configs))


@pytest.fixture(scope="module")
def audits(tmp_path_factory):
    """Per merge policy: the run directory and the oracle's recomputation."""
    base = tmp_path_factory.mktemp("ensemble")
    prepared = base / "prepared"
    for argv in (["synth", "--subjects", "2"], ["windows"], ["split"]):
        run(prepared, *argv)
    classes = json.loads((prepared / "windows_meta.json").read_text())["num_classes"]
    log = base / "log.jsonl"
    gen.write_ensemble_log(log, prepared, 1, {**LOG, "classes": classes})
    out = {}
    for policy in MERGE_POLICIES:
        run_dir = base / policy
        shutil.copytree(prepared, run_dir)
        run(run_dir, "import-logs", "--logs", str(log))
        run(run_dir, "ifc", "--merge-policy", policy)
        run(run_dir, "mask")
        run(run_dir, "report")
        out[policy] = run_dir, oracle.recompute(run_dir, policy)
    return out


@pytest.mark.parametrize("policy", MERGE_POLICIES)
def test_run_directory_agrees_with_the_oracle(audits, policy):
    run_dir, want = audits[policy]
    assert want["num_records"] == 3 * 2 * 3 * want["num_windows"]
    assert want["kept_records"] == want["num_records"] // 2
    assert oracle.check_run_dir(run_dir, policy, want) == []


@pytest.mark.parametrize("policy", MERGE_POLICIES)
def test_library_audit_agrees_with_the_oracle(audits, policy):
    run_dir, want = audits[policy]
    result, metrics = library_audit(run_dir, policy)
    assert oracle.check_library(result, want) == []
    assert result.metrics == metrics


def test_stricter_merge_policies_flag_more_windows(audits):
    ifc = [audits[policy][1]["ifc"] for policy in ("any", "majority", "all")]
    assert ifc[0] <= ifc[1] <= ifc[2]
    assert ifc[0] < ifc[2]
