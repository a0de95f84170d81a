"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own numpy/csv/json code: the program under
test only ever sees the files these functions write. The same seed and shape
always give byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def _session_labels(rng: np.random.Generator, n: int, classes: int, seg: tuple[int, int]) -> np.ndarray:
    """Per-sample activity labels in segments. Classes come in shuffled rounds,
    so a session of at least ``classes`` segments holds every class and every
    training split of the baseline sees all of them."""
    labels = np.empty(n, dtype=int)
    pos = 0
    order: list[int] = []
    while pos < n:
        if not order:
            order = list(rng.permutation(classes))
        length = int(rng.integers(seg[0], seg[1] + 1))
        labels[pos : pos + length] = order.pop()
        pos += length
    return labels


def write_recordings_csv(path: Path, seed: int, shape: dict) -> dict:
    """Write a canonical recordings CSV and return its measured properties.

    ``shape`` holds subjects, sessions, samples per session, channels, classes,
    the label segment length range and the share of empty channel cells.
    """
    rng = np.random.default_rng([seed, 1])
    classes, channels = shape["classes"], shape["channels"]
    n = shape["samples_per_session"]
    signatures = rng.normal(0.0, 1.5, size=(classes, channels))
    header = ["subject_id", "session_id", "label"] + [f"ch{c}" for c in range(channels)]
    empty_cells = 0
    total_cells = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for s in range(shape["subjects"]):
            subject_offset = rng.normal(0.0, 0.3, size=channels)
            for session in range(shape["sessions"]):
                labels = _session_labels(rng, n, classes, tuple(shape["segment"]))
                values = (
                    signatures[labels]
                    + subject_offset
                    + rng.normal(0.0, 1.0, size=(n, channels))
                )
                cells = np.char.mod("%.5f", values).astype(object)
                empty = rng.random((n, channels)) < shape["empty_share"]
                cells[empty] = ""
                empty_cells += int(empty.sum())
                total_cells += empty.size
                subject, sess = f"s{s:02d}", f"r{session}"
                for i in range(n):
                    writer.writerow([subject, sess, int(labels[i]), *cells[i]])
    return {"channel_cells": total_cells, "empty_cells": empty_cells}


def _read_window_labels(run_dir: Path) -> np.ndarray:
    with open(run_dir / "windows.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([int(r["label"]) for r in rows], dtype=int)


def _read_folds(run_dir: Path, num_windows: int) -> np.ndarray:
    plan = json.loads((run_dir / "splits.json").read_text(encoding="utf-8"))
    fold_of = np.full(num_windows, -1, dtype=int)
    for fold in plan["folds"]:
        fold_of[fold["test_windows"]] = fold["fold_id"]
    if (fold_of < 0).any():
        raise ValueError("fold plan leaves windows without a test fold")
    return fold_of


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _wrong_class(rng: np.random.Generator, labels: np.ndarray, classes: int) -> np.ndarray:
    return (labels + rng.integers(1, classes, size=labels.size)) % classes


def _log_lines(dataset: str, model: str, config: str, run: int,
               folds: np.ndarray, labels: np.ndarray, probs: np.ndarray):
    """JSONL lines in the program's own record layout (json.dumps spacing,
    shortest round-trip floats), so an imported log is rewritten byte for byte."""
    head = json.dumps(dataset), json.dumps(model), json.dumps(config)
    for w, (fold, label, row) in enumerate(zip(folds.tolist(), labels.tolist(), probs.tolist())):
        yield (
            f'{{"dataset": {head[0]}, "model": {head[1]}, "config": {head[2]}, '
            f'"run": {run}, "fold": {fold}, "window": {w}, "label": {label}, '
            f'"probs": [{", ".join(map(repr, row))}]}}\n'
        )


def write_ensemble_log(path: Path, run_dir: Path, seed: int, shape: dict) -> dict:
    """Paper-shaped log: every model has configs of differing quality and a
    small share of hard windows that every model tends to miss."""
    rng = np.random.default_rng([seed, 2])
    labels = _read_window_labels(run_dir)
    folds = _read_folds(run_dir, labels.size)
    classes, w = shape["classes"], labels.size
    hard = rng.random(w) < shape["hard_share"]
    records = 0
    with open(path, "w", encoding="utf-8") as fh:
        for model in shape["models"]:
            for config in shape["configs"]:
                acc = rng.uniform(*shape["accuracy"])
                for run in range(shape["runs"]):
                    p_correct = np.where(hard, shape["hard_accuracy"], acc)
                    correct = rng.random(w) < p_correct
                    predicted = np.where(correct, labels, _wrong_class(rng, labels, classes))
                    logits = rng.normal(0.0, 0.6, size=(w, classes))
                    logits[np.arange(w), predicted] += rng.uniform(1.5, 3.5, size=w)
                    fh.writelines(
                        _log_lines(shape["dataset"], model, config, run, folds, labels, _softmax(logits))
                    )
                    records += w
    return {"records": records, "windows": w}


def write_flagged_log(path: Path, run_dir: Path, seed: int, shape: dict) -> dict:
    """Log where a large share of windows fails under every model.

    Window kinds: ``major`` windows are confidently predicted as one wrong
    class by every record, ``minor`` windows spread their mass over several
    wrong classes, and ``split`` windows get one right and one wrong run per
    model (flagged under ``all`` only). The rest are clean.
    """
    rng = np.random.default_rng([seed, 3])
    labels = _read_window_labels(run_dir)
    folds = _read_folds(run_dir, labels.size)
    classes, w = shape["classes"], labels.size
    kinds = rng.choice(4, size=w, p=shape["kind_shares"])  # 0 clean 1 major 2 minor 3 split
    confused = _wrong_class(rng, labels, classes)
    spread = np.stack([(labels + k) % classes for k in range(1, 4)], axis=1)
    rows = np.arange(w)
    records = 0
    with open(path, "w", encoding="utf-8") as fh:
        for m, model in enumerate(shape["models"]):
            for config in shape["configs"]:
                for run in range(shape["runs"]):
                    logits = rng.normal(0.0, 0.3, size=(w, classes))
                    clean_right = rng.random(w) < shape["clean_accuracy"]
                    target = np.where(clean_right, labels, _wrong_class(rng, labels, classes))
                    target = np.where(kinds == 1, confused, target)
                    target = np.where(kinds == 3, labels if run == 0 else confused, target)
                    minor = kinds == 2
                    boost = np.where(kinds == 1, 4.0, 2.5)
                    logits[rows[~minor], target[~minor]] += boost[~minor]
                    # Minor windows: three wrong classes share the mass almost evenly.
                    lead = (m + run) % 3
                    for k in range(3):
                        logits[rows[minor], spread[minor, k]] += 2.5 + 0.2 * (k == lead)
                    fh.writelines(
                        _log_lines(shape["dataset"], model, config, run, folds, labels, _softmax(logits))
                    )
                    records += w
    return {"records": records, "windows": w}
