"""End-to-end benchmark of the haraudit CLI chain and library path.

Usage, from the repository root:

    python3 bench/run.py --workload ensemble_log --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: each timed repetition sets the
workload up afresh from the seed and runs its CLI chain, one
``python -m haraudit.cli <command> --out DIR`` process per command, in order,
from this single process (a closed loop with one client). Library iterations
(``read_records`` + ``audit_records`` + ``model_metrics`` in this warm process)
follow each chain.

``--trace 1`` measures the per-layer metrics: one untraced CLI chain gives
per-command peak RSS, then the chain is replayed in process through
``haraudit.cli.main``, alternating untraced and traced replays; the traced
replays wrap every public function of each module in spans (see spans.py).

Every run checks its outputs against an independent oracle (oracle.py), checks
that every repetition wrote byte-identical artifacts, and checks that the
generated workload has the property it was chosen for. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is nonzero when any check fails.
"""

from __future__ import annotations

import os

# Pin numpy's BLAS pool before numpy loads, here and in every child process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))
AUDIT_COMMANDS = ("ifc", "confusion", "histogram", "mask", "plot", "report")
MIN_REPS = 3
MIN_TRACED = 2
LIBRARY_MIN_S = 0.5
COMMAND_TIMEOUT_S = 120.0
DEADLINE_S = 165.0


class SetupError(RuntimeError):
    """The workload could not be prepared; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """Client of launch.py, which runs each CLI command and reports its cost.

    Commands are not forked from this process: a child's peak RSS would then
    include this process's memory (see launch.py).
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launch.py")], env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str], log: Path) -> tuple[float, float, int]:
        """Run ``python -m haraudit.cli *args``; return (wall s, peak RSS MiB, exit code)."""
        request = {"argv": [sys.executable, "-m", "haraudit.cli", *args], "log": str(log),
                   "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("the command launcher stopped")
        reply = json.loads(line)
        return reply["wall_s"], reply["rss_mb"], reply["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        self.proc.stdout.close()


def expand(args: list[str], inputs: Path, out: Path) -> list[str]:
    return [a.replace("{inputs}", str(inputs)) for a in args] + ["--out", str(out)]


def setup(launcher: Launcher, workload: dict, seed: int, base: Path) -> dict:
    """Generate the inputs and prepare the run directory under ``base``."""
    inputs, prepared = base / "inputs", base / "prepared"
    inputs.mkdir(parents=True)
    prepared.mkdir()
    props = gen.write_recordings_csv(inputs / "recordings.csv", seed, workload["shape"])
    for args in workload["prepare"]:
        _, _, code = launcher.run(expand(args, inputs, prepared), base / "setup.log")
        if code != 0:
            raise SetupError(f"set-up command {args[0]} exited {code}; see {base / 'setup.log'}")
    log = workload.get("log")
    if log is not None:
        write_log = gen.write_ensemble_log if log["kind"] == "ensemble" else gen.write_flagged_log
        props.update(write_log(inputs / "log.jsonl", prepared, seed, log))
    return props


def run_chain(launcher: Launcher, workload: dict, inputs: Path, out: Path, log: Path,
              between=None) -> dict:
    """One timed CLI chain in ``out``: per-command wall time, peak RSS, exit codes.

    ``between(i)``, when given, runs after the i-th command succeeds; its time
    is not part of the chain's, which is the sum of the commands' wall times.
    """
    commands = []
    for i, args in enumerate(workload["chain"]):
        wall, rss, code = launcher.run(expand(args, inputs, out), log)
        commands.append({"command": args[0], "wall_s": wall, "rss_mb": rss, "code": code})
        if code != 0:
            break
        if between is not None:
            between(i)
    return {
        "chain_s": sum(c["wall_s"] for c in commands),
        "audit_s": sum(c["wall_s"] for c in commands if c["command"] in AUDIT_COMMANDS),
        "peak_rss_mb": max(c["rss_mb"] for c in commands),
        "commands": commands,
        "ok": all(c["code"] == 0 for c in commands) and len(commands) == len(workload["chain"]),
    }


def spread_evenly(samples: int, slots: int) -> list[int]:
    """How many of ``samples`` to take after each of ``slots`` commands."""
    return [(i + 1) * samples // slots - i * samples // slots for i in range(slots)]


class Library:
    """The library path over a finished run directory, in this process."""

    def __init__(self, run_dir: Path, policy: str):
        self.log = run_dir / "predictions.jsonl"
        self.policy = policy
        meta = json.loads((run_dir / "windows_meta.json").read_text(encoding="utf-8"))
        with open(run_dir / "windows.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.bounds = [(int(r["start_sample"]), int(r["end_sample"])) for r in rows]
        self.labels = [int(r["label"]) for r in rows]
        self.total_samples = int(meta["total_samples"])
        self.num_classes = int(meta["num_classes"])

    def run(self):
        import numpy as np
        from haraudit.pipeline import audit_records
        from haraudit.predictions import filter_to_configs, model_metrics, read_records

        bounds = np.asarray(self.bounds, dtype=int)
        start = time.perf_counter()
        records = read_records(self.log, valid_window_ids=range(len(self.labels)),
                               num_classes=self.num_classes)
        result = audit_records(records, bounds, self.labels, self.total_samples,
                               num_classes=self.num_classes, merge_policy=self.policy)
        model_metrics(filter_to_configs(records, result.chosen_configs))
        return time.perf_counter() - start, result


def replay_in_process(workload: dict, inputs: Path, out: Path, tracer=None) -> tuple[float, bool]:
    """Replay the chain through ``haraudit.cli.main``; with a tracer, one span per command."""
    from haraudit import cli

    ok = True
    start = time.perf_counter()
    for args in workload["chain"]:
        span = tracer.span(f"cli.{args[0]}") if tracer else contextlib.nullcontext()
        with span:
            code = cli.main(expand(args, inputs, out))
        if code != 0:
            ok = False
            break
    return time.perf_counter() - start, ok


def percentile_note(n: int) -> str:
    """Highest percentile with at least ten samples beyond it."""
    if n < 11:
        return f"n={n}; no percentile has ten samples beyond it"
    return f"n={n}; highest supported percentile p{math.floor(100 * (1 - 10 / n))}"


def properties(workload_name: str, workload: dict, props: dict, want: dict) -> tuple[dict, list[str]]:
    """Measure the property each workload was chosen for and guard it."""
    cats = want["categories"]
    measured = {
        "records": want["num_records"],
        "windows": want["num_windows"],
        "records_per_window": want["num_records"] / want["num_windows"],
        "ifc_share": want["ifc"] / 100.0,
        "minor_windows": int((cats == 1).sum()),
        "major_windows": int((cats == 2).sum()),
        "empty_share": props["empty_cells"] / props["channel_cells"],
        "kept_share": want["kept_records"] / want["num_records"],
    }
    errors = []
    for key, (low, high) in workload["guard"].items():
        value = measured[key]
        if value < low or (high is not None and value > high):
            errors.append(f"{workload_name}: {key} {value} outside [{low}, {high}]")
    return measured, errors


def measure(launcher: Launcher, name: str, workload: dict, seed: int, seconds: float, work: Path, t0: float) -> dict:
    """Untraced run: repetitions of set-up, CLI chain and library iteration.

    Each repetition sets the workload up afresh from the seed, so the chain
    always starts from a pristine run directory: a leftover ``fused.jsonl`` or
    ``ifc_histogram.csv`` would send ``mask`` and ``plot`` down another path.
    """
    setup_times, chains, library_batches, digests = [], [], [], []
    errors, failed = [], 0
    input_digest, library = None, None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(chains) >= MIN_REPS:
            per_rep = elapsed / len(chains)
            if elapsed + per_rep / 2 >= seconds or time.perf_counter() - t0 + per_rep > DEADLINE_S:
                break
        base = work / f"rep{len(chains)}"
        setup_start = time.perf_counter()
        props = setup(launcher, workload, seed, base)
        setup_times.append(time.perf_counter() - setup_start)
        digest = oracle.run_dir_digest(base)
        input_digest = input_digest or digest
        if digest != input_digest:
            errors.append("set-ups from one seed wrote different inputs")
            break
        out = base / "prepared"
        between, batch = None, []
        if library is not None:
            # Library calls are spread over the chain, so that a repetition's
            # batch sees the same stretch of machine time as its chain.
            last = statistics.mean(t for t, _ in library_batches[-1])
            plan = spread_evenly(max(2, math.ceil(LIBRARY_MIN_S / last)), len(workload["chain"]))

            def between(i: int) -> None:
                batch.extend(library.run() for _ in range(plan[i]))
        chain = run_chain(launcher, workload, base / "inputs", out, work / "chain.log", between)
        chains.append(chain)
        if not chain["ok"]:
            failed += 1
            last = chain["commands"][-1]
            errors.append(f"{last['command']} exited {last['code']}; see {work / 'chain.log'}")
            break
        digests.append(oracle.run_dir_digest(out))
        if library is None:
            library = Library(out, workload["policy"])
            warm_s, _ = library.run()  # warm-up, untimed
            batch.extend(library.run() for _ in range(max(2, math.ceil(LIBRARY_MIN_S / warm_s))))
        else:
            shutil.rmtree(base)
        library_batches.append(batch)
    library_calls = [call for batch in library_batches for call in batch]
    attempted = len(chains) + len(library_calls)
    if errors:
        return {"attempted": max(attempted, 1), "failed": max(failed, 1), "errors": errors,
                "metrics": {}, "commands": [], "chain_samples": []}

    first = work / "rep0" / "prepared"
    want = oracle.recompute(first, workload["policy"])
    check = oracle.check_run_dir(first, workload["policy"], want)
    ingest = json.loads((first / "ingest.json").read_text(encoding="utf-8"))
    if props["empty_cells"] != ingest["repaired_cells"]:
        check.append(f"ingest.json: {ingest['repaired_cells']} repaired cells, "
                     f"{props['empty_cells']} generated empty cells")
    measured, guard_errors = properties(name, workload, props, want)
    mismatched = sum(d != digests[0] for d in digests)
    if mismatched:
        errors.append(f"{mismatched} repetition(s) wrote artifacts that differ from the first")
    library_errors = [oracle.check_library(result, want) for _, result in library_calls]
    errors += check + guard_errors + [e for errs in library_errors for e in errs]
    if check or guard_errors:
        failed = attempted  # every repetition wrote the same artifacts, so all are wrong
    else:
        failed = mismatched + sum(map(bool, library_errors))

    chain_s = statistics.median(c["chain_s"] for c in chains)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": digests[0],
        "properties": measured,
        "chain_samples": [c["chain_s"] for c in chains],
        "commands": chains[0]["commands"],
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "chain_s": chain_s,
            "audit_s": statistics.median(c["audit_s"] for c in chains),
            "records_per_s": want["num_records"] / chain_s,
            "samples_per_s": ingest["num_samples"] / chain_s,
            "library_s": statistics.median(statistics.mean(t for t, _ in b) for b in library_batches),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in chains),
        },
    }


def measure_traced(launcher: Launcher, name: str, workload: dict, seed: int, seconds: float, work: Path, t0: float) -> dict:
    """Traced run: start-up, one subprocess chain, then untraced/traced in-process replays."""
    startup = []
    for _ in range(5):
        wall, _, code = launcher.run(["--help"], work / "chain.log")
        if code != 0:
            raise SetupError("haraudit.cli --help failed")
        startup.append(wall)
    props = setup(launcher, workload, seed, work / "setup0")
    base = work / "setup0"
    inputs, prepared = base / "inputs", base / "prepared"
    errors, failed = [], 0

    sub_dir = work / "subprocess"
    shutil.copytree(prepared, sub_dir)
    chain = run_chain(launcher, workload, inputs, sub_dir, work / "chain.log")
    if not chain["ok"]:
        return {"attempted": 1, "failed": 1, "errors": ["untraced chain failed"], "metrics": {}}
    digest = oracle.run_dir_digest(sub_dir)
    want = oracle.recompute(sub_dir, workload["policy"])
    check = oracle.check_run_dir(sub_dir, workload["policy"], want)
    errors += check
    failed += bool(check)
    measured, guard_errors = properties(name, workload, props, want)
    errors += guard_errors
    failed += bool(guard_errors)

    # An untimed replay first, so that first-call costs in this process land in
    # neither sample; the pairs then alternate which replay goes first.
    warm = work / "inproc-warm"
    shutil.copytree(prepared, warm)
    replay_in_process(workload, inputs, warm)
    shutil.rmtree(warm)
    untraced, traced, self_times, counts, coverage = [], [], [], [], []
    tracer = None
    replay_start = time.perf_counter()
    attempted = 1
    while len(traced) < MIN_TRACED or time.perf_counter() - replay_start < seconds:
        if len(traced) >= MIN_TRACED and time.perf_counter() - t0 > DEADLINE_S - 30:
            break
        for mode in ("untraced", "traced") if len(traced) % 2 == 0 else ("traced", "untraced"):
            out = work / f"inproc-{mode}{len(traced)}"
            shutil.copytree(prepared, out)
            attempted += 1
            if mode == "untraced":
                wall, ok = replay_in_process(workload, inputs, out)
                untraced.append(wall)
            else:
                tracer = spans.Tracer()
                with spans.patched(tracer):
                    wall, ok = replay_in_process(workload, inputs, out, tracer)
                traced.append(wall)
                self_times.append(tracer.self_times())
                counts.append(dict(tracer.counts))
                top = sum(end - start for _, _, start, end, parent in tracer.spans if parent is None)
                coverage.append(top / wall)
            if not ok or oracle.run_dir_digest(out) != digest:
                failed += 1
                errors.append(f"in-process {mode} replay failed or wrote different artifacts")
            shutil.rmtree(out)
        if failed:
            break
    if failed or not traced:
        return {"attempted": attempted, "failed": max(failed, 1), "errors": errors, "metrics": {}}
    tracer.write_jsonl(work / "spans.jsonl")
    if any(c != counts[0] for c in counts):
        failed += 1
        errors.append("per-layer counts differ between traced replays")
    if min(coverage) < 0.95:
        failed += 1
        errors.append(f"command spans cover only {min(coverage):.3f} of the traced chain")

    metrics = {"cli.startup_s": statistics.median(startup[1:])}
    for c in chain["commands"]:
        metrics[f"cli.{c['command']}_rss_mb"] = c["rss_mb"]
    for key in set().union(*self_times):
        metrics[key + "_s"] = statistics.median(s.get(key, 0.0) for s in self_times)
    metrics.update(counts[0])
    kept, considered = metrics.pop("predictions.filter_kept", 0), metrics.pop("predictions.filter_in", 0)
    metrics["predictions.kept_ratio"] = kept / considered if considered else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": digest,
        "properties": measured,
        "subprocess_chain_s": chain["chain_s"],
        "commands": chain["commands"],
        "inprocess_untraced_s": untraced,
        "inprocess_traced_s": traced,
        "coverage": min(coverage),
        "metrics": metrics,
    }


def report(name: str, seed: int, trace: int, result: dict) -> dict:
    """Print the human-readable result; return the metrics for the JSON line."""
    print(f"workload {name}  seed {seed}  trace {trace}")
    print(f"  closed loop, 1 client; threads pinned: "
          + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()) + f"; nproc {os.cpu_count()}")
    if result.get("properties"):
        print("  properties: " + "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                           for k, v in result["properties"].items()))
    print(f"  artifact digest: {result.get('digest')}")
    for error in result["errors"]:
        print(f"  CHECK FAILED: {error}")
    key = "end_to_end" if trace == 0 else "per_layer"
    # BENCHMARK.json lists the per-layer metrics measured on every workload and
    # the end-to-end metrics steady enough to carry a bound.
    wanted = [m for m in SPEC[key] if m.get("in_benchmark_json", True)
              and (trace == 0 or m["measured_on"] == list(SPEC["workloads"]))]
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    for c in result.get("commands", []):
        print(f"  first chain: {c['command']:<15} {c['wall_s']:8.3f} s {c['rss_mb']:8.1f} MiB")
    if "coverage" in result:
        print(f"  subprocess chain {result['subprocess_chain_s']:.3f} s; in-process replays: "
              f"untraced {statistics.median(result['inprocess_untraced_s']):.3f} s, "
              f"traced {statistics.median(result['inprocess_traced_s']):.3f} s "
              f"(n={len(result['inprocess_traced_s'])}); command-span coverage {result['coverage']:.4f}")
    for m in SPEC[key]:
        if m["name"] in result["metrics"]:
            value = result["metrics"][m["name"]]
            note = f"  ({percentile_note(len(result['chain_samples']))})" if m["name"] == "chain_s" else ""
            value = float(value)
            print(f"  {m['name']:<42} {value:14.6f} {m['unit']}{note}")
    if trace == 1:
        extra = sorted(set(result["metrics"]) - set(units))
        for k in extra:
            print(f"  {k:<42} {result['metrics'][k]:14.6f} (span not in spec.json)")
    print(f"  failed_frac {result['failed'] / max(result['attempted'], 1):.4f} ratio "
          f"({result['failed']}/{result['attempted']})")
    return {m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]} for m in wanted}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "haraudit" / "cli.py").is_file():
        print(f"bench: no haraudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = SPEC["workloads"][args.workload]
    launcher = Launcher()
    try:
        # Also compiles the package's bytecode before anything is timed.
        _, _, code = launcher.run(["--help"], work / "chain.log")
        if code != 0:
            raise SetupError(f"haraudit.cli --help exited {code}; see {work / 'chain.log'}")
        run = measure_traced if args.trace else measure
        result = run(launcher, args.workload, workload, args.seed, args.seconds, work, t0)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()
    metrics = report(args.workload, args.seed, args.trace, result)
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    correct = not result["errors"] and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
