"""Overlap metrics walkthrough: single contributions, common ground, the
intersect of false classifications, and how window flags become sample
flags and run-length histograms.

Run with:  python3 demos/02_overlap_metrics.py
"""

import numpy as np

from haraudit import (
    CorrectnessMatrix,
    FusedTable,
    build_mask,
    compute_ifc,
    run_lengths,
)

# ---------------------------------------------------------------------------
# A tiny ensemble: three models, five windows. Column w is window w.
# ---------------------------------------------------------------------------
matrix = CorrectnessMatrix(
    model_ids=("cnn", "gru", "lstm"),
    values=np.array(
        [
            [1, 0, 0, 0, 1],
            [1, 1, 0, 0, 0],
            [1, 0, 0, 0, 1],
        ],
        dtype=bool,
    ),
)
summary = compute_ifc(matrix)
print("single contributions:", summary.single_contribution)
print(f"common ground: {summary.common_ground}%  ifc: {summary.ifc}%")
print("flags:", summary.ifc_flags.astype(int).tolist())

# The three shares always close to 100: every window is classified correctly
# by zero models (ifc), exactly one (a single contribution), or two or more
# (common ground).
total = summary.common_ground + sum(summary.single_contribution.values()) + summary.ifc
print(f"closure check: {total}")

# ---------------------------------------------------------------------------
# Reconstructing a realistic dataset-level row from its percentages.
# ---------------------------------------------------------------------------
singles = [0.72, 1.42, 0.76, 0.96, 3.04, 0.59]
common = 80.77
n = 10_000
values = np.zeros((6, n), dtype=bool)
values[:, : round(common * n / 100)] = True
pos = round(common * n / 100)
for m, share in enumerate(singles):
    count = round(share * n / 100)
    values[m, pos : pos + count] = True
    pos += count
big = CorrectnessMatrix(model_ids=tuple(f"m{i}" for i in range(6)), values=values)
print(f"\nreconstructed 10k-window ensemble -> ifc {compute_ifc(big).ifc:.2f}%")

# ---------------------------------------------------------------------------
# Window flags reach the sample axis through the mask: each sample takes the
# most severe category of the windows covering it, so a sample is flagged
# when any covering window is.
# ---------------------------------------------------------------------------
bounds = np.array([[0, 200], [100, 300], [200, 400], [300, 500]])
flags = np.array([False, True, False, False])
# One fused row, for flagged window 1: true class 2, confused with class 0.
fused = FusedTable(window=np.array([1]), label=np.array([2]), confused=np.array([0]),
                   agrees=np.array([False]), mean_probs=np.array([[0.7, 0.2, 0.1]]))
samples = build_mask(flags, fused, bounds, 500).sample_mask > 0
print(f"\nflagged samples: [{samples.argmax()}, {len(samples) - samples[::-1].argmax()})")

# ---------------------------------------------------------------------------
# Run lengths of contiguous flagged windows, binned by powers of two.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(1)
long_flags = rng.random(400) < 0.35
hist = run_lengths(long_flags)
print(f"\n{len(hist.segments)} flagged segments in a 400-window sequence")
for lower, upper, count in hist.bins:
    label = f"{lower}" if lower == upper else f"{lower}-{upper}"
    print(f"  length {label:>6}: {'#' * count} ({count})")
