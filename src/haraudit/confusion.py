"""Confusion structure of unclassifiable windows.

For windows no model classifies correctly, the per-model probability vectors
are fused by an unweighted mean over every (model, config, run) row of the
prediction table, summed in that order; the confused class is the argmax of
the fused vector. Class-level rates and chord-diagram
edge data are derived from those fusions.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._io import open_text, write_json
from .predictions import PredictionTable

PCT_SUM_TOL = 1e-9


@dataclass
class FusedDistribution:
    """Mean probability vector of one flagged window across all records."""

    window_id: int
    mean_probs: np.ndarray
    confused_class: int
    true_label: int
    #: True when the fused argmax recovers the true label even though every
    #: model failed individually; confused_class then holds the runner-up.
    fused_agrees_with_truth: bool = False


@dataclass(frozen=True)
class ClassConfusionRow:
    """Distribution and confusion percentages for one true class.

    ``relative_pct`` is the share of the class's own windows that are
    unclassifiable; ``absolute_pct`` is that confusion expressed against the
    whole dataset and equals distribution * relative / 100 exactly. Classes
    with no unclassifiable windows report both as None.
    """

    class_id: int
    name: str
    distribution_pct: float
    relative_pct: float | None
    absolute_pct: float | None
    window_count: int
    flagged_count: int


@dataclass(frozen=True)
class ChordEdge:
    true_class: int
    confused_class: int
    weight: int


def fuse_probabilities(
    table: PredictionTable, flagged_window_ids: Iterable[int]
) -> list[FusedDistribution]:
    """Fuse records of flagged windows into one mean distribution per window.

    Every flagged window must carry at least one record from every model
    present in ``table``. Argmax ties resolve to the lowest class id; when
    the argmax equals the true label the window keeps its flag and the
    runner-up class is reported instead.
    """
    flagged = np.unique(np.fromiter(flagged_window_ids, dtype=np.int64))
    all_models = np.unique(table.model)
    rows = np.flatnonzero(np.isin(table.window, flagged))
    # Sort by window, then in a canonical order within the window, so each
    # mean is bit-for-bit independent of record order.
    rows = rows[np.lexsort(
        (table.run[rows], table.config[rows], table.model[rows], table.window[rows])
    )]
    per_window = np.split(rows, np.searchsorted(table.window[rows], flagged[1:]))

    fused = []
    for window_id, here in zip(flagged.tolist(), per_window):
        if not here.size:
            raise ValueError(f"flagged window {window_id} has no records")
        missing = np.setdiff1d(all_models, table.model[here]).tolist()
        if missing:
            raise ValueError(
                f"flagged window {window_id} lacks records from models {missing}"
            )
        labels = np.unique(table.label[here]).tolist()
        if len(labels) != 1:
            raise ValueError(
                f"window {window_id} carries conflicting true labels {labels}"
            )
        true_label = labels[0]
        mean_probs = np.mean(table.probs[here], axis=0)
        top = int(np.argmax(mean_probs))
        agrees = top == true_label
        if agrees:
            runner_up = mean_probs.copy()
            runner_up[top] = -np.inf
            confused = int(np.argmax(runner_up))
        else:
            confused = top
        fused.append(
            FusedDistribution(
                window_id=window_id,
                mean_probs=mean_probs,
                confused_class=confused,
                true_label=true_label,
                fused_agrees_with_truth=agrees,
            )
        )
    return fused


def confusion_table(
    ifc_flags: np.ndarray,
    labels: Sequence[int],
    num_classes: int | None = None,
    class_names: Sequence[str] | None = None,
) -> list[ClassConfusionRow]:
    """Per-class distribution, relative confusion, and absolute confusion."""
    flags = np.asarray(ifc_flags, dtype=bool)
    labels = np.asarray(labels, dtype=int)
    if flags.size != labels.size:
        raise ValueError("ifc_flags and labels must align")
    if flags.size == 0:
        raise ValueError("no windows")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    if class_names is None:
        class_names = [f"class_{c}" for c in range(num_classes)]
    total = flags.size
    rows = []
    for c in range(num_classes):
        of_class = labels == c
        n_class = int(of_class.sum())
        n_flagged = int((of_class & flags).sum())
        dist = 100.0 * n_class / total
        if n_class == 0 or n_flagged == 0:
            rel: float | None = None
            absolute: float | None = None
        else:
            rel = 100.0 * n_flagged / n_class
            absolute = dist * rel / 100.0
        rows.append(
            ClassConfusionRow(
                class_id=c,
                name=str(class_names[c]),
                distribution_pct=dist,
                relative_pct=rel,
                absolute_pct=absolute,
                window_count=n_class,
                flagged_count=n_flagged,
            )
        )
    check = sum(r.distribution_pct for r in rows)
    if abs(check - 100.0) > PCT_SUM_TOL:
        raise RuntimeError(f"class distribution sums to {check!r}, not 100")
    return rows


def chord_edges(fused: Sequence[FusedDistribution]) -> list[ChordEdge]:
    """Count flagged windows per (true class -> confused class) pair.

    Edges come back sorted by descending weight, then by class ids, so the
    heaviest confusion flow leads the export.
    """
    counts: dict[tuple[int, int], int] = {}
    for f in fused:
        key = (f.true_label, f.confused_class)
        counts[key] = counts.get(key, 0) + 1
    edges = [
        ChordEdge(true_class=t, confused_class=c, weight=w)
        for (t, c), w in counts.items()
    ]
    edges.sort(key=lambda e: (-e.weight, e.true_class, e.confused_class))
    return edges


def write_confusion_csv(rows: Sequence[ClassConfusionRow], dest) -> None:
    """Table export: class_id,name,dist_pct,rel_pct,abs_pct (absent cells empty)."""
    with open_text(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class_id", "name", "dist_pct", "rel_pct", "abs_pct"])
        for row in rows:
            writer.writerow(
                [
                    row.class_id,
                    row.name,
                    repr(row.distribution_pct),
                    "" if row.relative_pct is None else repr(row.relative_pct),
                    "" if row.absolute_pct is None else repr(row.absolute_pct),
                ]
            )


def write_chord_json(
    edges: Sequence[ChordEdge], class_names: Sequence[str], dest
) -> None:
    payload = {
        "classes": list(class_names),
        "edges": [
            {"from": e.true_class, "to": e.confused_class, "weight": e.weight}
            for e in edges
        ],
    }
    write_json(payload, dest)


def write_fused_jsonl(fused: Sequence[FusedDistribution], dest) -> None:
    """Persist fused distributions so downstream stages can reuse them."""
    with open_text(dest, "w") as fh:
        for f in fused:
            fh.write(
                json.dumps(
                    {
                        "window": f.window_id,
                        "label": f.true_label,
                        "confused": f.confused_class,
                        "agrees_with_truth": f.fused_agrees_with_truth,
                        "mean_probs": [float(p) for p in f.mean_probs],
                    }
                )
            )
            fh.write("\n")


def read_fused_jsonl(src) -> list[FusedDistribution]:
    fused = []
    with open_text(src) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            fused.append(
                FusedDistribution(
                    window_id=int(obj["window"]),
                    mean_probs=np.asarray(obj["mean_probs"], dtype=float),
                    confused_class=int(obj["confused"]),
                    true_label=int(obj["label"]),
                    fused_agrees_with_truth=bool(obj["agrees_with_truth"]),
                )
            )
    return fused
