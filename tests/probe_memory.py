"""Peak memory of the commands that hold the recordings or the prediction log,
at k times a benchmark workload's corpus.

Writes the corpus of a bench/spec.json workload with ``--scale`` times its
subjects, runs the workload's commands on it, one process each, and takes each
command's peak RSS from ``os.wait4``. The commands run under bench/launch.py, a
process started before this one imports numpy, because on Linux a child's peak
RSS includes the memory of the process it was forked from.

recording_chain runs ingest, windows, split and train-baseline. ingest holds
the parsed corpus. windows and train-baseline hold it too, and cut it into
windows that overlap ``window_size / stride`` times; a copy of every window
would show here as a peak well above ingest's. The probe exits 1 when either
peaks above RATIO times ingest on the same machine.

ensemble_log prepares its run directory with ingest, windows and split, writes
its log with bench/gen.py, and runs import-logs and ifc, the two commands that
hold the whole prediction table. Each must stay within split's peak plus
LOG_RATIO times the bytes of predictions.npy; a table with model and config
expanded to text would show here as a peak well above that.

Run with:  python tests/probe_memory.py [--workload recording_chain] [--scale 4]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_modules import BENCH, SPEC, load_bench_module

SRC = Path(__file__).resolve().parent.parent / "src"
RATIO = 1.2
LOG_RATIO = 2.0
#: The corpus seed; ROADMAP's k-times measurements are at seed 1.
SEED = 1
#: Per workload, the commands run and the commands checked.
COMMANDS = {
    "recording_chain": (("ingest", "windows", "split", "train-baseline"),
                        ("windows", "train-baseline")),
    "ensemble_log": (("ingest", "windows", "split", "import-logs", "ifc"), ("import-logs", "ifc")),
}
#: As in the benchmark: one BLAS thread, so no thread buffers differ by host.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(COMMANDS), default="recording_chain")
    parser.add_argument("--scale", type=int, default=4, help="times the workload's subjects")
    args = parser.parse_args(argv)
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    launcher = subprocess.Popen([sys.executable, str(BENCH / "launch.py")], env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    workload = SPEC["workloads"][args.workload]
    shape = {**workload["shape"], "subjects": workload["shape"]["subjects"] * args.scale}
    ran, checked = COMMANDS[args.workload]
    gen = load_bench_module("gen")
    peaks = {}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            inputs, out, log = Path(tmp, "inputs"), Path(tmp, "run"), Path(tmp, "commands.log")
            inputs.mkdir()
            gen.write_recordings_csv(inputs / "recordings.csv", SEED, shape)
            for command in (c for c in workload["prepare"] + workload["chain"] if c[0] in ran):
                if command[0] == "import-logs":
                    gen.write_ensemble_log(inputs / "log.jsonl", out, SEED, workload["log"])
                argv = [a.replace("{inputs}", str(inputs)) for a in command]
                request = {"argv": [sys.executable, "-m", "haraudit.cli", *argv, "--out", str(out)],
                           "log": str(log), "timeout": 600}
                launcher.stdin.write(json.dumps(request) + "\n")
                launcher.stdin.flush()
                reply = json.loads(launcher.stdout.readline())
                if reply["code"] != 0:
                    print(f"{command[0]} exited {reply['code']}:\n{log.read_text()}", file=sys.stderr)
                    return 1
                peaks[command[0]] = reply["rss_mb"]
                print(f"{command[0]:<15} {reply['rss_mb']:6.1f} MiB  {reply['wall_s']:6.2f} s")
            if args.workload == "ensemble_log":
                table_mb = (out / "predictions.npy").stat().st_size / 2**20
    finally:
        launcher.stdin.close()
        launcher.wait()
        launcher.stdout.close()
    if args.workload == "ensemble_log":
        limit = peaks["split"] + LOG_RATIO * table_mb
        print(f"limit {limit:.1f} MiB: split plus {LOG_RATIO} times the {table_mb:.1f} MiB of "
              f"predictions.npy at {args.scale}x, seed {SEED}")
        for command in checked:
            print(f"{command}: {(peaks[command] - peaks['split']) / table_mb:.2f} times "
                  "predictions.npy above split")
    else:
        limit = RATIO * peaks["ingest"]
        print(f"limit {limit:.1f} MiB: {RATIO} times ingest at {args.scale}x, seed {SEED}")
    over = [c for c in checked if peaks[c] > limit]
    for command in over:
        print(f"{command} peaks at {peaks[command]:.1f} MiB, above the limit of {limit:.1f} MiB",
              file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
