"""The chains whose artifacts the golden listing pins, each replayed in
process into a run directory under a given base directory.

The chains are the default synthetic chain, one synthetic chain under
non-default settings, and the three benchmark workloads at seed 1 with their
inputs from ``bench/gen.py`` and their commands from ``bench/spec.json``.
"""

import hashlib
import json
from pathlib import Path

from bench_modules import SPEC, load_bench_module
from haraudit.cli import main
from haraudit.synth import default_scenario, save_scenario

AUDIT = [["ifc"], ["confusion"], ["histogram"], ["mask"], ["plot"], ["report"]]
BENCH_SEED = 1

gen = load_bench_module("gen")


def run(out, argv):
    assert main([*argv, "--out", str(out)]) == 0, argv


def synth_default(base):
    out = base / "run"
    for argv in [["synth"], ["windows"], ["split"], ["train-baseline", "--runs", "4"], *AUDIT]:
        run(out, argv)
    return out


def synth_settings(base):
    """Integer class signatures, four subjects, windows of 100 samples at a
    stride of 50 from a config file, and four training runs."""
    scenario = base / "ints.json"
    save_scenario(default_scenario(), scenario)
    payload = json.loads(scenario.read_text())
    payload["class_signatures"] = [[0, 0], [2, -2], [-2, 2]]
    scenario.write_text(json.dumps(payload))
    config = base / "config.json"
    config.write_text(json.dumps({"window_size": 100, "stride": 50}))
    out = base / "run"
    for argv in [["synth", "--scenario", str(scenario), "--subjects", "4"],
                 ["windows", "--config", str(config)], ["split"],
                 ["train-baseline", "--runs", "4"], *AUDIT]:
        run(out, argv)
    return out


def bench_workload(name):
    """The run directory of one benchmark workload, set up as bench/run.py
    sets it up."""
    workload = SPEC["workloads"][name]

    def chain(base):
        inputs, out = base / "inputs", base / "prepared"
        inputs.mkdir()
        gen.write_recordings_csv(inputs / "recordings.csv", BENCH_SEED, workload["shape"])

        def expand(argv):
            return [a.replace("{inputs}", str(inputs)) for a in argv]

        for argv in workload["prepare"]:
            run(out, expand(argv))
        log = workload.get("log")
        if log is not None:
            write_log = gen.write_ensemble_log if log["kind"] == "ensemble" else gen.write_flagged_log
            write_log(inputs / "log.jsonl", out, BENCH_SEED, log)
        for argv in workload["chain"]:
            run(out, expand(argv))
        return out

    return chain


CHAINS = {
    "synth_default": synth_default,
    "synth_settings": synth_settings,
    **{f"{name}/{BENCH_SEED}": bench_workload(name) for name in SPEC["workloads"]},
}


def listing(run_dir: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(run_dir.iterdir())}
