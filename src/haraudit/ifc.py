"""Intersect of false classifications: overlap metrics over a model ensemble.

Every window falls into exactly one bucket: correctly classified by no model
(the intersect of false classifications, IFC), by exactly one model (that
model's single contribution), or by at least two models (common ground). The
three percentages therefore close to 100. The [models x windows] correctness
matrix they are computed from comes from ``predictions.merge_runs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._io import read_csv, write_csv, write_json

CLOSURE_TOL = 1e-9
IFC_WINDOWS_HEADER = ("window_id", "start_sample", "end_sample", "true_label", "ifc_flag")
HISTOGRAM_HEADER = ("bin_lower", "bin_upper", "count")


class ConsistencyError(RuntimeError):
    """The direct and closure-based IFC computations disagree."""


@dataclass
class CorrectnessMatrix:
    """Boolean [models x windows] correctness, fully populated; column w is window w."""

    model_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=bool)
        if self.values.ndim != 2 or self.values.shape[0] != len(self.model_ids):
            raise ValueError(
                f"matrix shape {self.values.shape} does not match {len(self.model_ids)} models"
            )

    @property
    def num_windows(self) -> int:
        return self.values.shape[1]


@dataclass
class IfcSummary:
    """Single contributions, common ground, and IFC, all in percent of windows."""

    single_contribution: dict[str, float]
    common_ground: float
    ifc: float
    ifc_flags: np.ndarray


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


def compute_ifc(matrix: CorrectnessMatrix) -> IfcSummary:
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
    )


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
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (flags[1:] != flags[:-1]) | (rec[1:] != rec[:-1])
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.append(starts, n))
    keep = flags[starts]
    segments = [
        Segment(start_window=s, length=l)
        for s, l in zip(starts[keep].tolist(), lengths[keep].tolist())
    ]
    # A length's bin is its bit length minus one, which frexp's exponent gives.
    counts = np.bincount(np.frexp(lengths[keep])[1] - 1).tolist()
    bins = [(2**k, 2 ** (k + 1) - 1, count) for k, count in enumerate(counts)]
    return RunLengthHistogram(segments=segments, bins=bins)


def write_ifc_windows_csv(
    summary: IfcSummary,
    window_bounds: np.ndarray,
    labels: Sequence[int],
    dest,
) -> None:
    """Window-level export: window_id,start_sample,end_sample,true_label,ifc_flag."""
    rows = zip(range(summary.ifc_flags.size), *np.asarray(window_bounds).T.tolist(),
               np.asarray(labels).tolist(), summary.ifc_flags.astype(int).tolist())
    write_csv(IFC_WINDOWS_HEADER, rows, dest)


def read_ifc_windows_csv(src) -> np.ndarray:
    """The ifc_flag column of an ifc_windows.csv export."""
    return np.array(read_csv(IFC_WINDOWS_HEADER, src)[-1], dtype=np.int64).astype(bool)


def write_ifc_summary_json(summary: IfcSummary, merge_policy: str, dest) -> None:
    payload = {
        "single_contributions": {
            m: summary.single_contribution[m] for m in sorted(summary.single_contribution)
        },
        "common_ground": summary.common_ground,
        "ifc": summary.ifc,
        "num_windows": summary.ifc_flags.size,
        "merge_policy": merge_policy,
    }
    write_json(payload, dest)


def write_histogram_csv(hist: RunLengthHistogram, dest) -> None:
    """Histogram export: bin_lower,bin_upper,count."""
    write_csv(HISTOGRAM_HEADER, hist.bins, dest)


def read_histogram_csv(src) -> list[tuple[int, int, int]]:
    """The (bin_lower, bin_upper, count) rows of an ifc_histogram.csv export."""
    columns = read_csv(HISTOGRAM_HEADER, src)
    return [tuple(row) for row in np.array(columns, dtype=np.int64).T.tolist()]
