"""Run the benchmark over several seeds and summarise it as one BENCH_<n>.json.

Usage, from the repository root:

    python3 bench/collect.py --seeds 1-10 --seconds 20 --out bench/results/BENCH_1.json

For each workload it makes one untraced run per seed and reports, per
end-to-end metric, the median, the quartiles and the spread (interquartile
range as a share of the median, from ``statistics.quantiles(values, n=4)``).
With ``--traced-seed`` it adds one traced run per workload with every
per-layer metric, the tracing overhead and the command-span coverage.
Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{trace}"
    detail = json.loads((work / "result.json").read_text(encoding="utf-8"))
    return {"line": line, "detail": detail}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    out = {"machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "platform": platform.platform()},
           "seconds": args.seconds, "seeds": seed_range(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in out["seeds"]]
        entry = {
            "end_to_end": {m["name"]: summary([r["line"]["metrics"][m["name"]]["value"] for r in runs])
                           for m in SPEC["end_to_end"]},
            "digests": {seed: r["detail"]["digest"] for seed, r in zip(out["seeds"], runs)},
            "properties": {seed: r["detail"]["properties"] for seed, r in zip(out["seeds"], runs)},
            "attempted": sum(r["line"]["attempted"] for r in runs),
            "failed": sum(r["line"]["failed"] for r in runs),
        }
        for name, s in entry["end_to_end"].items():
            print(f"{workload:<16} {name:<14} median {s['median']:12.5g}  spread {s['spread']:.4f}", flush=True)
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, args.seconds, 1)["detail"]
            entry["traced"] = {key: traced[key] for key in (
                "metrics", "subprocess_chain_s", "inprocess_untraced_s", "inprocess_traced_s",
                "coverage", "digest")}
            entry["traced"]["seed"] = args.traced_seed
            print(f"{workload:<16} trace.overhead_s {traced['metrics']['trace.overhead_s']:.4f}"
                  f"  coverage {traced['coverage']:.4f}", flush=True)
        out["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
