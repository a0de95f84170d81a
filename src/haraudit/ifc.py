"""Intersect of false classifications: overlap metrics over a model ensemble.

Every window falls into exactly one bucket: correctly classified by no model
(the intersect of false classifications, IFC), by exactly one model (that
model's single contribution), or by at least two models (common ground). The
three percentages therefore close to 100. The [models x windows] correctness
matrix they are computed from comes from ``predictions.merge_runs``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._io import open_text, write_json

CLOSURE_TOL = 1e-9


class ConsistencyError(RuntimeError):
    """The direct and closure-based IFC computations disagree."""


@dataclass
class CorrectnessMatrix:
    """Boolean [models x windows] correctness, fully populated."""

    model_ids: tuple[str, ...]
    window_ids: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.window_ids = np.asarray(self.window_ids, dtype=int)
        self.values = np.asarray(self.values, dtype=bool)
        if self.values.shape != (len(self.model_ids), self.window_ids.size):
            raise ValueError(
                f"matrix shape {self.values.shape} does not match "
                f"{len(self.model_ids)} models x {self.window_ids.size} windows"
            )

    @property
    def num_windows(self) -> int:
        return int(self.window_ids.size)


@dataclass
class IfcSummary:
    """Single contributions, common ground, and IFC, all in percent of windows."""

    single_contribution: dict[str, float]
    common_ground: float
    ifc: float
    ifc_flags: np.ndarray
    window_ids: np.ndarray
    merge_policy: str | None = None


@dataclass(frozen=True)
class Segment:
    start_window: int
    length: int


@dataclass
class RunLengthHistogram:
    """Maximal runs of flagged windows, binned by power-of-two lengths."""

    segments: list[Segment]
    bins: list[tuple[int, int, int]] = field(default_factory=list)


def single_contributions(matrix: CorrectnessMatrix) -> dict[str, float]:
    """Percent of windows each model alone classifies correctly."""
    counts = matrix.values.sum(axis=0)
    lone = counts == 1
    return {
        model: 100.0 * float((matrix.values[m] & lone).sum()) / matrix.num_windows
        for m, model in enumerate(matrix.model_ids)
    }


def common_ground(matrix: CorrectnessMatrix) -> float:
    """Percent of windows at least two models classify correctly."""
    counts = matrix.values.sum(axis=0)
    return 100.0 * float((counts >= 2).sum()) / matrix.num_windows


def compute_ifc(
    matrix: CorrectnessMatrix, merge_policy: str | None = None
) -> IfcSummary:
    """Compute the IFC both directly and through the closure identity.

    The direct count (windows no model classifies correctly) must agree with
    100 - common ground - sum of single contributions to within 1e-9; any
    larger gap indicates a definition bug and raises ConsistencyError.
    """
    counts = matrix.values.sum(axis=0)
    flags = counts == 0
    direct = 100.0 * float(flags.sum()) / matrix.num_windows
    singles = single_contributions(matrix)
    cg = common_ground(matrix)
    via_closure = 100.0 - cg - sum(singles.values())
    if abs(direct - via_closure) > CLOSURE_TOL:
        raise ConsistencyError(
            f"direct IFC {direct!r} and closure IFC {via_closure!r} disagree"
        )
    return IfcSummary(
        single_contribution=singles,
        common_ground=cg,
        ifc=direct,
        ifc_flags=flags,
        window_ids=matrix.window_ids.copy(),
        merge_policy=merge_policy,
    )


def _length_bin(length: int) -> int:
    return int(length).bit_length() - 1


def run_lengths(
    ifc_flags: np.ndarray, recording_indices: np.ndarray | None = None
) -> RunLengthHistogram:
    """Maximal runs of consecutive flagged windows, in window order.

    Runs never cross recording boundaries: pass each window's source
    recording index to break runs there. Bin k counts segments whose length
    falls in [2**k, 2**(k+1) - 1].
    """
    flags = np.asarray(ifc_flags, dtype=bool)
    n = flags.size
    if recording_indices is None:
        rec = np.zeros(n, dtype=int)
    else:
        rec = np.asarray(recording_indices, dtype=int)
        if rec.size != n:
            raise ValueError("recording_indices must align with ifc_flags")
    if n == 0:
        return RunLengthHistogram(segments=[], bins=[])
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (flags[1:] != flags[:-1]) | (rec[1:] != rec[:-1])
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.append(starts, n))
    keep = flags[starts]
    segments = [
        Segment(start_window=int(s), length=int(l))
        for s, l in zip(starts[keep], lengths[keep])
    ]
    if not segments:
        return RunLengthHistogram(segments=[], bins=[])
    max_bin = max(_length_bin(seg.length) for seg in segments)
    counts = [0] * (max_bin + 1)
    for seg in segments:
        counts[_length_bin(seg.length)] += 1
    bins = [(2**k, 2 ** (k + 1) - 1, counts[k]) for k in range(max_bin + 1)]
    return RunLengthHistogram(segments=segments, bins=bins)


def write_ifc_windows_csv(
    summary: IfcSummary,
    window_bounds: np.ndarray,
    labels: Sequence[int],
    dest,
) -> None:
    """Window-level export: window_id,start_sample,end_sample,true_label,ifc_flag."""
    with open_text(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["window_id", "start_sample", "end_sample", "true_label", "ifc_flag"])
        for i, window_id in enumerate(summary.window_ids):
            writer.writerow(
                [
                    int(window_id),
                    int(window_bounds[i, 0]),
                    int(window_bounds[i, 1]),
                    int(labels[i]),
                    int(summary.ifc_flags[i]),
                ]
            )


def write_ifc_summary_json(summary: IfcSummary, dest) -> None:
    payload = {
        "single_contributions": {
            m: summary.single_contribution[m] for m in sorted(summary.single_contribution)
        },
        "common_ground": summary.common_ground,
        "ifc": summary.ifc,
        "num_windows": int(summary.window_ids.size),
        "merge_policy": summary.merge_policy,
    }
    write_json(payload, dest)


def write_histogram_csv(hist: RunLengthHistogram, dest) -> None:
    """Histogram export: bin_lower,bin_upper,count."""
    with open_text(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_lower", "bin_upper", "count"])
        for lower, upper, count in hist.bins:
            writer.writerow([lower, upper, count])
