"""Independent recomputation of the audit from ``predictions.jsonl``.

Uses only ``json`` and numpy, never the program's modules. It recomputes the
config choice (best mean per-run accuracy, ties to the lexicographically
smallest config id), the run merge under a policy, single contributions,
common ground, IFC, and the clean/minor/major mask by the gap rule, then
compares them with the artifacts the CLI chain wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np


def run_dir_digest(run_dir: Path) -> str:
    """One SHA-256 over the names and bytes of every file in the run directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(run_dir).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _load_log(path: Path):
    model, config, run, window, label, probs = [], [], [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            model.append(obj["model"])
            config.append(obj["config"])
            run.append(obj["run"])
            window.append(obj["window"])
            label.append(obj["label"])
            probs.append(obj["probs"])
    return (np.array(model), np.array(config), np.array(run), np.array(window),
            np.array(label), np.array(probs, dtype=float))


def _gap_category(mean_probs: np.ndarray) -> int:
    ranked = np.sort(mean_probs)[::-1]
    gaps = ranked[:-1] - ranked[1:]
    return 2 if int(np.argmax(gaps)) == 0 else 1


def recompute(run_dir: Path, policy: str) -> dict:
    """Audit figures recomputed from the run directory's prediction log."""
    model, config, run, window, label, probs = _load_log(run_dir / "predictions.jsonl")
    correct = probs.argmax(axis=1) == label
    num_windows = int(window.max()) + 1
    models = sorted(set(model.tolist()))

    keep = np.zeros(model.size, dtype=bool)
    chosen = {}
    for m in models:
        scores = {}
        for c in sorted(set(config[model == m].tolist())):
            sel = (model == m) & (config == c)
            scores[c] = float(np.mean([correct[sel & (run == r)].mean()
                                       for r in sorted(set(run[sel].tolist()))]))
        best = max(scores.values())
        chosen[m] = min(c for c, s in scores.items() if s == best)
        keep |= (model == m) & (config == chosen[m])

    verdicts = np.zeros((len(models), num_windows), dtype=bool)
    for i, m in enumerate(models):
        sel = keep & (model == m)
        n_runs = len(set(run[sel].tolist()))
        hits = np.bincount(window[sel], weights=correct[sel], minlength=num_windows)
        if policy == "any":
            verdicts[i] = hits >= 1
        elif policy == "majority":
            verdicts[i] = hits * 2 > n_runs
        else:
            verdicts[i] = hits == n_runs
    right = verdicts.sum(axis=0)
    flags = right == 0
    pct = lambda n: 100.0 * float(n) / num_windows  # noqa: E731

    categories = np.zeros(num_windows, dtype=int)
    kept = np.flatnonzero(keep)
    order = kept[np.lexsort((run[kept], config[kept], model[kept], window[kept]))]
    starts = np.searchsorted(window[order], np.arange(num_windows + 1))
    for w in np.flatnonzero(flags):
        rows = order[starts[w]:starts[w + 1]]
        categories[w] = _gap_category(np.mean([probs[r] for r in rows], axis=0))

    return {
        "num_windows": num_windows,
        "num_records": int(model.size),
        "kept_records": int(keep.sum()),
        "chosen": chosen,
        "single_contributions": {m: pct((verdicts[i] & (right == 1)).sum())
                                 for i, m in enumerate(models)},
        "common_ground": pct((right >= 2).sum()),
        "ifc": pct(flags.sum()),
        "flags": flags,
        "categories": categories,
        "mask": {"clean_pct": pct((categories == 0).sum()),
                 "minor_pct": pct((categories == 1).sum()),
                 "major_pct": pct((categories == 2).sum())},
    }


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9)


def _column(path: Path, name: str) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        return np.array([int(row[name]) for row in csv.DictReader(fh)], dtype=int)


def _overlap_errors(where: str, got: dict, want: dict) -> list[str]:
    errors = []
    if set(got["single_contributions"]) != set(want["single_contributions"]):
        errors.append(f"{where}: models {sorted(got['single_contributions'])}")
    else:
        for m, v in want["single_contributions"].items():
            if not _close(got["single_contributions"][m], v):
                errors.append(f"{where}: single contribution of {m} {got['single_contributions'][m]} != {v}")
    for key in ("common_ground", "ifc"):
        if not _close(got[key], want[key]):
            errors.append(f"{where}: {key} {got[key]} != {want[key]}")
    return errors


def _mask_errors(where: str, got: dict, want: dict) -> list[str]:
    return [f"{where}: {k} {got[k]} != {v}" for k, v in want.items() if not _close(got[k], v)]


def check_run_dir(run_dir: Path, policy: str, want: dict) -> list[str]:
    """Compare the chain's artifacts with the recomputed audit; [] means agreement."""
    errors = []
    ifc_summary = json.loads((run_dir / "ifc_summary.json").read_text(encoding="utf-8"))
    mask_summary = json.loads((run_dir / "mask_summary.json").read_text(encoding="utf-8"))
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    errors += _overlap_errors("ifc_summary.json", ifc_summary, want)
    errors += _overlap_errors("report.json", report["overlap"], want)
    errors += _mask_errors("mask_summary.json", mask_summary, want["mask"])
    errors += _mask_errors("report.json", report["mask"], want["mask"])
    for where, payload in (("ifc_summary.json", ifc_summary), ("mask_summary.json", mask_summary),
                           ("report.json", report)):
        recorded = payload.get("merge_policy", payload.get("policy"))
        if recorded != policy:
            errors.append(f"{where}: policy {recorded!r} != {policy!r}")
    if ifc_summary["num_windows"] != want["num_windows"] or report["num_windows"] != want["num_windows"]:
        errors.append("window count differs from the log")
    if not np.array_equal(_column(run_dir / "ifc_windows.csv", "ifc_flag"), want["flags"]):
        errors.append("ifc_windows.csv: per-window flags differ")
    if not np.array_equal(_column(run_dir / "mask_windows.csv", "category"), want["categories"]):
        errors.append("mask_windows.csv: per-window categories differ")
    return errors


def check_library(result, want: dict) -> list[str]:
    """Compare an ``audit_records`` result with the recomputed audit."""
    got = {"single_contributions": result.ifc.single_contribution,
           "common_ground": result.ifc.common_ground, "ifc": result.ifc.ifc}
    errors = _overlap_errors("audit_records", got, want)
    errors += _mask_errors("audit_records", result.mask.distribution, want["mask"])
    chosen = {m: c for (_, m), c in result.chosen_configs.items()}
    if chosen != want["chosen"]:
        errors.append(f"audit_records: chosen configs {chosen} != {want['chosen']}")
    return errors
