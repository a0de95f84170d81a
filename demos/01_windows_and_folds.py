"""Windowing walkthrough: from raw sample streams to labelled windows and
grouped cross-validation folds.

Run with:  python3 demos/01_windows_and_folds.py
"""

import numpy as np

from haraudit import (
    SensorRecording,
    WindowConfig,
    fit_normalizer,
    group_k_fold,
    plan_folds,
    slice_corpus,
)

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# Three subjects, each a short two-channel stream with a label change halfway.
# ---------------------------------------------------------------------------
recordings = []
for k in range(3):
    n = 1200
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
    channels = np.where(labels[:, None] == 0, -1.0, 1.0) + rng.normal(0, 0.3, (n, 2))
    recordings.append(
        SensorRecording(
            channels=channels,
            labels=labels,
            subject_id=f"s{k}",
            session_id="r0",
            channel_names=["ax", "ay"],
        )
    )

# A recording carries no sample rate: window size, stride and bounds are all
# counted in samples. WindowConfig() holds the defaults `haraudit windows` uses
# (200-sample windows, stride 100, majority labels).
config = WindowConfig()
dataset = slice_corpus(recordings, config)
print(f"{dataset.num_windows} windows of {config.window_size} samples "
      f"(stride {config.stride}) over {dataset.total_samples} samples")

# The windows are one table of columns; those spanning the label change carry
# the transition flag.
windows = dataset.windows
spanning = np.flatnonzero(windows.transition)
print(f"windows spanning a label change: {spanning.tolist()}")

# ---------------------------------------------------------------------------
# Window labelling policies differ exactly on those spanning windows. Each
# holds 100 samples of either class: majority breaks the tie toward the lowest
# class id, last_sample takes the final sample's class.
# ---------------------------------------------------------------------------
for policy in ("majority", "last_sample"):
    labels = slice_corpus(recordings, WindowConfig(label_policy=policy)).windows.label
    print(f"policy {policy:>14}: spanning windows labelled {labels[spanning].tolist()}")

# ---------------------------------------------------------------------------
# Normalization statistics come from the training split only. The dataset
# holds each window as a view of its recording; gather copies out the windows
# asked for, here the held-out subject's, as [windows, size, channels].
# ---------------------------------------------------------------------------
train_ids = np.flatnonzero(windows.group != "s2")
stats = fit_normalizer(dataset, train_ids)
normalized = stats.normalize(dataset.gather(np.flatnonzero(windows.group == "s2")))
print(f"train-split channel means {np.round(stats.mean, 3)}, "
      f"stds {np.round(stats.std, 3)}")
print(f"normalized held-out mean ~ {normalized.mean():.4f}")

# ---------------------------------------------------------------------------
# Grouped folds: one fold per subject up to the cap, merged beyond it.
# ---------------------------------------------------------------------------
plan = plan_folds(windows)
for i, fold in enumerate(plan.folds):
    print(f"fold {i}: groups={fold.test_group_keys} "
          f"({len(fold.test_window_ids)} test windows)")

many_groups = {f"subject{g:02d}": list(range(g * 10, g * 10 + 10)) for g in range(24)}
merged = group_k_fold(many_groups, max_k=10)
sizes = sorted(len(f.test_group_keys) for f in merged.folds)
print(f"24 groups capped at 10 folds -> groups per fold {sizes}")
