"""Peak memory of the commands that read the recordings, at k times the
benchmark's recording_chain corpus.

Writes the recording_chain corpus of bench/spec.json with ``--scale`` times
its subjects, runs its ingest, windows, split and train-baseline commands on
it, one process each, and takes each command's peak RSS from ``os.wait4``.
The commands run under bench/launch.py, a process started before this one
imports numpy, because on Linux a child's peak RSS includes the memory of the
process it was forked from.

ingest holds the parsed corpus. windows and train-baseline hold it too, and
cut it into windows that overlap ``window_size / stride`` times; a copy of
every window would show here as a peak well above ingest's. The probe exits 1
when either peaks above RATIO times ingest on the same machine.

Run with:  python tests/probe_memory.py [--scale 4]
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
#: The corpus seed; ROADMAP's k-times measurements are at seed 1.
SEED = 1
COMMANDS = ("ingest", "windows", "split", "train-baseline")
CHECKED = ("windows", "train-baseline")
#: As in the benchmark: one BLAS thread, so no thread buffers differ by host.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=int, default=4, help="times the workload's subjects")
    args = parser.parse_args(argv)
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    launcher = subprocess.Popen([sys.executable, str(BENCH / "launch.py")], env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    workload = SPEC["workloads"]["recording_chain"]
    shape = {**workload["shape"], "subjects": workload["shape"]["subjects"] * args.scale}
    peaks = {}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            inputs, out, log = Path(tmp, "inputs"), Path(tmp, "run"), Path(tmp, "commands.log")
            inputs.mkdir()
            load_bench_module("gen").write_recordings_csv(inputs / "recordings.csv", SEED, shape)
            for command in (c for c in workload["chain"] if c[0] in COMMANDS):
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
    finally:
        launcher.stdin.close()
        launcher.wait()
        launcher.stdout.close()
    limit = RATIO * peaks["ingest"]
    over = [c for c in CHECKED if peaks[c] > limit]
    print(f"limit {limit:.1f} MiB: {RATIO} times ingest at {args.scale}x, seed {SEED}")
    for command in over:
        print(f"{command} peaks at {peaks[command]:.1f} MiB, "
              f"{peaks[command] / peaks['ingest']:.2f} times ingest", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
