"""Trinary clean/minor/major patch mask over windows and samples.

Windows every model misclassifies are split by the shape of their fused
probability vector: when the largest drop between consecutively ranked
probabilities sits right after the top class, the ensemble was confidently
wrong (major); when it sits lower, several classes shared the probability
mass and the failure reads as uncertainty (minor). Everything else is clean.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._io import open_text, write_json
from .confusion import FusedDistribution

CLEAN, MINOR, MAJOR = 0, 1, 2
CATEGORY_NAMES = {CLEAN: "clean", MINOR: "minor", MAJOR: "major"}


@dataclass
class MaskSequence:
    """Per-window and per-sample categories plus the window-level distribution."""

    window_mask: np.ndarray
    sample_mask: np.ndarray
    distribution: dict[str, float]
    policy: str | None = None


def categorize(mean_probs: Sequence[float], is_flagged: bool) -> int:
    """Categorize one window from its fused probabilities.

    Unflagged windows are clean. For flagged windows the probabilities are
    sorted descending and the gaps between neighbours computed; if the first
    gap (top class to runner-up) is the largest, the window is major,
    otherwise minor. Gap ties resolve to the earliest gap, biasing toward
    major. With two classes the single gap makes every flagged window major.
    """
    probs = np.asarray(mean_probs, dtype=float)
    if probs.size < 2:
        raise ValueError("need at least two class probabilities")
    if not is_flagged:
        return CLEAN
    ranked = np.sort(probs)[::-1]
    gaps = ranked[:-1] - ranked[1:]
    return MAJOR if int(np.argmax(gaps)) == 0 else MINOR


def build_mask(
    ifc_flags: np.ndarray,
    fused: Sequence[FusedDistribution],
    window_bounds: np.ndarray,
    total_samples: int,
    policy: str | None = None,
) -> MaskSequence:
    """Window categories plus a sample-level mask merged by maximum severity.

    ``ifc_flags`` and ``window_bounds`` are aligned by position, with window
    ids equal to positions (dataset order). Every flagged window needs a
    fused distribution. Samples covered by no window are clean.
    """
    flags = np.asarray(ifc_flags, dtype=bool)
    window_bounds = np.asarray(window_bounds, dtype=int)
    if window_bounds.shape != (flags.size, 2):
        raise ValueError("window_bounds must align with ifc_flags")
    by_window = {f.window_id: f for f in fused}
    window_mask = np.zeros(flags.size, dtype=np.int8)
    for w in np.flatnonzero(flags):
        f = by_window.get(int(w))
        if f is None:
            raise ValueError(f"flagged window {w} has no fused distribution")
        window_mask[w] = categorize(f.mean_probs, True)
    sample_mask = np.zeros(total_samples, dtype=np.int8)
    for w in np.flatnonzero(window_mask):
        start, end = window_bounds[w]
        np.maximum(sample_mask[start:end], window_mask[w], out=sample_mask[start:end])
    n = flags.size
    distribution = {
        "clean_pct": 100.0 * float((window_mask == CLEAN).sum()) / n,
        "minor_pct": 100.0 * float((window_mask == MINOR).sum()) / n,
        "major_pct": 100.0 * float((window_mask == MAJOR).sum()) / n,
    }
    return MaskSequence(
        window_mask=window_mask,
        sample_mask=sample_mask,
        distribution=distribution,
        policy=policy,
    )


def write_window_mask_csv(mask: MaskSequence, window_bounds: np.ndarray, dest) -> None:
    """Window export: window_id,start_sample,end_sample,category."""
    with open_text(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["window_id", "start_sample", "end_sample", "category"])
        for w, category in enumerate(mask.window_mask):
            writer.writerow(
                [w, int(window_bounds[w, 0]), int(window_bounds[w, 1]), int(category)]
            )


def write_sample_mask_csv(mask: MaskSequence, dest) -> None:
    """Sample export: sample_index,category."""
    with open_text(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_index", "category"])
        for s, category in enumerate(mask.sample_mask):
            writer.writerow([s, int(category)])


def write_mask_summary_json(mask: MaskSequence, dest) -> None:
    payload = dict(mask.distribution)
    payload["policy"] = mask.policy
    write_json(payload, dest)

