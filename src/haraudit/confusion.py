"""Confusion structure of unclassifiable windows.

For windows no model classifies correctly, the per-model probability vectors
are fused by an unweighted mean over every (model, config, run) row of the
prediction table, summed in that order; the confused class is the argmax of
the fused vector. A ``FusedTable`` holds one row per flagged window.
Class-level rates and chord-diagram edge data are derived from it.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from ._io import open_text, write_csv, write_json
from .predictions import PredictionTable

PCT_SUM_TOL = 1e-9
#: fused.jsonl keys, one per FusedTable column in field order.
FUSED_FIELDS = ("window", "label", "confused", "agrees_with_truth", "mean_probs")


@dataclass(eq=False)  # arrays have no single truth value; tables compare by identity
class FusedTable:
    """Fused distributions of the flagged windows as columns, in window id order.

    ``mean_probs`` is [windows, classes] float64 and ``confused`` the argmax
    of each row. ``agrees`` marks windows whose fused argmax recovers the true
    label even though every model failed individually; ``confused`` then
    holds the runner-up class.
    """

    window: np.ndarray
    label: np.ndarray
    confused: np.ndarray
    agrees: np.ndarray
    mean_probs: np.ndarray

    def __len__(self) -> int:
        return int(self.window.size)


@dataclass(frozen=True)
class ClassConfusionRow:
    """Distribution and confusion percentages for one true class; the field
    names are the confusion_table.csv columns and the report.json keys.

    ``dist_pct`` is the class's share of all windows, ``rel_pct`` the share of
    the class's own windows that are unclassifiable, and ``abs_pct`` that
    confusion expressed against the whole dataset, equal to dist * rel / 100
    exactly. Classes with no unclassifiable windows report both as None.
    """

    class_id: int
    name: str
    dist_pct: float
    rel_pct: float | None
    abs_pct: float | None


def fuse_probabilities(
    table: PredictionTable, flagged_window_ids: Iterable[int], labels: Sequence[int]
) -> FusedTable:
    """Fuse records of flagged windows into one mean distribution per window.

    Every flagged window must carry at least one record from every model
    present in ``table``. A window's true label is ``labels[window]``, taken
    from the window table. Argmax ties resolve to the lowest class id; when
    the argmax equals the true label the window keeps its flag and the
    runner-up class is reported instead.
    """
    # return_inverse keeps np.unique off its hash path, which in numpy 2 imports numpy.ma.
    flagged = np.unique(np.fromiter(flagged_window_ids, dtype=np.int64), return_inverse=True)[0]
    rows = np.flatnonzero(np.isin(table.window, flagged))
    # Sort by window, then in a canonical order within the window, so each
    # mean is bit-for-bit independent of record order.
    rows = rows[np.lexsort(
        (table.run[rows], table.config[rows], table.model[rows], table.window[rows])
    )]
    window = table.window[rows]
    per_window = np.split(rows, np.searchsorted(window, flagged[1:]))
    labels = np.asarray(labels, dtype=np.int64)[flagged]
    # Coverage by model code; a window without records fails in a table without models too.
    covered = np.zeros((flagged.size, len(table.model_names)), dtype=bool)
    covered[np.searchsorted(flagged, window), table.model[rows]] = True
    lacking = (np.bincount(table.model, minlength=len(table.model_names)) > 0) & ~covered
    failed = np.flatnonzero(lacking.any(axis=1) | ~covered.any(axis=1))
    if failed.size:
        i = failed[0]
        if not covered[i].any():
            raise ValueError(f"flagged window {flagged[i]} has no records")
        missing = [table.model_names[m] for m in np.flatnonzero(lacking[i]).tolist()]
        raise ValueError(f"flagged window {flagged[i]} lacks records from models {missing}")
    means = np.zeros((flagged.size, table.probs.shape[1]))
    for i, here in enumerate(per_window[:flagged.size]):
        means[i] = np.mean(table.probs[here], axis=0)
    if not means.size:  # nothing flagged, maybe in a log with no class count to argmax over
        return FusedTable(flagged, labels, labels.copy(), labels.astype(bool), means)
    top = means.argmax(axis=1)
    agrees = top == labels
    runner_up = means.copy()
    runner_up[agrees, top[agrees]] = -np.inf
    return FusedTable(window=flagged, label=labels, confused=runner_up.argmax(axis=1),
                      agrees=agrees, mean_probs=means)


def confusion_table(
    ifc_flags: np.ndarray, labels: Sequence[int], num_classes: int
) -> list[ClassConfusionRow]:
    """Per-class distribution, relative confusion, and absolute confusion.

    Class c is named ``class_c``.
    """
    flags = np.asarray(ifc_flags, dtype=bool)
    labels = np.asarray(labels, dtype=int)
    if flags.size != labels.size:
        raise ValueError("ifc_flags and labels must align")
    if flags.size == 0:
        raise ValueError("no windows")
    counts = np.bincount(labels, minlength=num_classes)[:num_classes].tolist()
    flagged = np.bincount(labels[flags], minlength=num_classes)[:num_classes].tolist()
    rows = []
    for c, (n_class, n_flagged) in enumerate(zip(counts, flagged)):
        dist = 100.0 * n_class / flags.size
        rel = 100.0 * n_flagged / n_class if n_flagged else None
        rows.append(
            ClassConfusionRow(
                class_id=c,
                name=f"class_{c}",
                dist_pct=dist,
                rel_pct=rel,
                abs_pct=None if rel is None else dist * rel / 100.0,
            )
        )
    check = sum(r.dist_pct for r in rows)
    if abs(check - 100.0) > PCT_SUM_TOL:
        raise RuntimeError(f"class distribution sums to {check!r}, not 100")
    return rows


def chord_edges(fused: FusedTable) -> list[tuple[int, int, int]]:
    """Count flagged windows per (true class -> confused class) pair.

    Edges are (true class, confused class, weight) tuples, sorted by
    descending weight, then by class ids, so the heaviest confusion flow
    leads the export.
    """
    pairs, weights = np.unique(
        np.stack([fused.label, fused.confused], axis=1), axis=0, return_counts=True
    )
    order = np.argsort(-weights, kind="stable")  # pairs come sorted by class ids
    return [(t, c, w) for (t, c), w in zip(pairs[order].tolist(), weights[order].tolist())]


def write_confusion_csv(rows: Sequence[ClassConfusionRow], dest) -> None:
    """Table export: one column per ClassConfusionRow field, absent cells empty."""
    write_csv(
        [f.name for f in fields(ClassConfusionRow)],
        (["" if cell is None else cell for cell in astuple(row)] for row in rows),
        dest,
    )


def write_chord_json(
    edges: Sequence[tuple[int, int, int]], class_names: Sequence[str], dest
) -> None:
    payload = {
        "classes": list(class_names),
        "edges": [{"from": t, "to": c, "weight": w} for t, c, w in edges],
    }
    write_json(payload, dest)


def write_fused_jsonl(fused: FusedTable, dest) -> None:
    """Persist fused distributions so downstream stages can reuse them."""
    columns = (fused.window, fused.label, fused.confused, fused.agrees, fused.mean_probs)
    with open_text(dest, "w") as fh:
        for row in zip(*(column.tolist() for column in columns)):
            fh.write(json.dumps(dict(zip(FUSED_FIELDS, row))))
            fh.write("\n")


def read_fused_jsonl(src) -> FusedTable:
    """A fused.jsonl file as a table; with no rows, ``mean_probs`` is [0, 0]."""
    with open_text(src) as fh:
        objs = [json.loads(line) for line in fh if line.strip()]
    window, label, confused, agrees, probs = ([obj[name] for obj in objs] for name in FUSED_FIELDS)
    return FusedTable(
        window=np.array(window, dtype=np.int64),
        label=np.array(label, dtype=np.int64),
        confused=np.array(confused, dtype=np.int64),
        agrees=np.array(agrees, dtype=bool),
        mean_probs=np.array(probs, dtype=float).reshape(len(objs), -1 if objs else 0),
    )
