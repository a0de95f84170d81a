"""Trinary clean/minor/major patch mask over windows and samples.

Windows every model misclassifies are split by the shape of their fused
probability vector: when the largest drop between consecutively ranked
probabilities sits right after the top class, the ensemble was confidently
wrong (major); when it sits lower, several classes shared the probability
mass and the failure reads as uncertainty (minor). Everything else is clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from .confusion import FusedTable

CLEAN, MINOR, MAJOR = 0, 1, 2
CATEGORY_NAMES = {CLEAN: "clean", MINOR: "minor", MAJOR: "major"}


@dataclass
class MaskSequence:
    """Per-window and per-sample categories plus the window-level distribution."""

    window_mask: np.ndarray
    sample_mask: np.ndarray
    distribution: dict[str, float]


def build_mask(
    ifc_flags: np.ndarray,
    fused: FusedTable,
    window_bounds: np.ndarray,
    total_samples: int,
) -> MaskSequence:
    """Window categories plus a sample-level mask merged by maximum severity.

    ``ifc_flags`` and ``window_bounds`` are aligned by position, with window
    ids equal to positions (dataset order). Every flagged window needs a
    fused distribution, which decides its category: sorted descending, its
    probabilities leave gaps between neighbours, and the window is major when
    the first gap (top class to runner-up) is the largest, otherwise minor.
    Gap ties resolve to the earliest gap, biasing toward major; with two
    classes the single gap makes every flagged window major. Unflagged windows
    and samples covered by no window are clean.
    """
    flags = np.asarray(ifc_flags, dtype=bool)
    window_bounds = np.asarray(window_bounds, dtype=int)
    if window_bounds.shape != (flags.size, 2):
        raise ValueError("window_bounds must align with ifc_flags")
    # A lookup, not np.isin: in numpy 2 that calls np.unique, which imports numpy.ma.
    covered = np.zeros(flags.size, dtype=bool)
    covered[fused.window] = True
    missing = np.flatnonzero(flags & ~covered)
    if missing.size:
        raise ValueError(f"flagged window {missing[0]} has no fused distribution")
    rows = flags[fused.window]
    window_mask = np.zeros(flags.size, dtype=np.int8)
    if rows.any():
        if fused.mean_probs.shape[1] < 2:
            raise ValueError("need at least two class probabilities")
        ranked = np.sort(fused.mean_probs[rows], axis=1)[:, ::-1]
        major = np.argmax(ranked[:, :-1] - ranked[:, 1:], axis=1) == 0
        window_mask[fused.window[rows]] = np.where(major, MAJOR, MINOR)
    sample_mask = np.zeros(total_samples, dtype=np.int8)
    for w in np.flatnonzero(window_mask):
        start, end = window_bounds[w]
        np.maximum(sample_mask[start:end], window_mask[w], out=sample_mask[start:end])
    shares = 100.0 * np.bincount(window_mask, minlength=3) / flags.size
    distribution = {f"{CATEGORY_NAMES[c]}_pct": share for c, share in enumerate(shares.tolist())}
    return MaskSequence(
        window_mask=window_mask,
        sample_mask=sample_mask,
        distribution=distribution,
    )


def write_window_mask_csv(mask: MaskSequence, window_bounds: np.ndarray, dest) -> None:
    """Window export: window_id,start_sample,end_sample,category."""
    rows = zip(range(mask.window_mask.size), *window_bounds.T.tolist(), mask.window_mask.tolist())
    write_csv(["window_id", "start_sample", "end_sample", "category"], rows, dest)


def write_sample_mask_csv(mask: MaskSequence, dest) -> None:
    """Sample export: sample_index,category."""
    # map(int) streams the rows: no list of every sample is built.
    rows = zip(range(mask.sample_mask.size), map(int, mask.sample_mask))
    write_csv(["sample_index", "category"], rows, dest)


def write_mask_summary_json(mask: MaskSequence, policy: str, dest) -> None:
    payload = dict(mask.distribution)
    payload["policy"] = policy
    write_json(payload, dest)

