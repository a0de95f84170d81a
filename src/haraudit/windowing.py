"""Sliding-window slicing, window labelling, and train-split normalization."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .recordings import SensorRecording, corpus_num_classes

LABEL_POLICIES = ("majority", "last_sample")
GROUP_UNITS = ("subject", "subject_session")
GROUP_KEY_SEPARATOR = "::"

#: Channels whose spread falls below this are normalized with divisor 1.
DEGENERATE_STD = 1e-9


@dataclass(frozen=True)
class WindowConfig:
    """Window length and stride in samples plus the window-label policy."""

    size: int = 200
    stride: int = 100
    label_policy: str = "majority"

    def __post_init__(self):
        if not 1 <= self.stride <= self.size:
            raise ValueError(f"need 1 <= stride <= size, got {self.stride}/{self.size}")
        if self.label_policy not in LABEL_POLICIES:
            raise ValueError(f"unknown label policy {self.label_policy!r}")


@dataclass(frozen=True)
class Window:
    """Metadata for one window; samples live in WindowedDataset.blocks."""

    window_id: int
    start_sample: int
    end_sample: int
    label: int
    group_key: str
    recording_index: int
    transition: bool


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel normalization statistics.

    ``std`` stores the divisor actually applied: channels whose raw spread is
    below DEGENERATE_STD record 1.0 so the transform stays invertible.
    """

    mean: np.ndarray
    std: np.ndarray


@dataclass
class WindowedDataset:
    """Fixed-length windows over one or more recordings.

    Sample indices are global over the concatenated corpus stream; windows
    never span recording boundaries. ``blocks`` is [num_windows, size,
    num_channels] and is aligned with ``windows``.
    """

    windows: list[Window]
    blocks: np.ndarray
    num_classes: int
    config: WindowConfig
    recording_spans: list[tuple[int, int]] = field(default_factory=list)

    @property
    def num_windows(self) -> int:
        return len(self.windows)

    @property
    def num_channels(self) -> int:
        return self.blocks.shape[2] if self.blocks.size else 0

    @property
    def total_samples(self) -> int:
        return self.recording_spans[-1][1] if self.recording_spans else 0

    @property
    def labels(self) -> np.ndarray:
        return np.array([w.label for w in self.windows], dtype=int)

    def window_bounds(self) -> np.ndarray:
        """[num_windows, 2] array of global (start, end) sample indices."""
        return np.array([(w.start_sample, w.end_sample) for w in self.windows], dtype=int)


def assign_window_label(labels: Sequence[int], policy: str) -> tuple[int, bool]:
    """Reduce the per-sample labels of one window to a single class id.

    Returns ``(label, transition)`` where ``transition`` is true when the
    window spans more than one class. ``majority`` picks the most frequent
    class with ties broken by the lowest id, and ``last_sample`` takes the
    final sample. The transition flag does not depend on the policy.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise ValueError("window label slice is empty")
    if policy not in LABEL_POLICIES:
        raise ValueError(f"unknown label policy {policy!r}")
    uniform = bool((labels == labels[0]).all())
    if policy == "last_sample":
        return int(labels[-1]), not uniform
    majority = int(np.bincount(labels).argmax())
    return majority, not uniform


def _group_key(rec: SensorRecording, group_by: str) -> str:
    if group_by == "subject":
        return rec.subject_id
    if group_by == "subject_session":
        return rec.subject_id + GROUP_KEY_SEPARATOR + rec.session_id
    raise ValueError(f"unknown group unit {group_by!r}")


def slice_corpus(
    recordings: Sequence[SensorRecording],
    config: WindowConfig,
    group_by: str = "subject",
    num_classes: int | None = None,
) -> WindowedDataset:
    """Slice every recording into windows with dense ids in recording order."""
    if not recordings:
        raise ValueError("empty corpus")
    if num_classes is None:
        num_classes = corpus_num_classes(list(recordings))
    windows: list[Window] = []
    blocks: list[np.ndarray] = []
    spans: list[tuple[int, int]] = []
    offset = 0
    for rec_index, rec in enumerate(recordings):
        n = rec.num_samples
        spans.append((offset, offset + n))
        if n < config.size:
            warnings.warn(
                f"recording {rec_index} has {n} samples, shorter than one "
                f"window of {config.size}; no windows emitted",
                stacklevel=2,
            )
            offset += n
            continue
        n_windows = (n - config.size) // config.stride + 1
        # [n-size+1, size, channels] view; take every stride-th start.
        view = np.lib.stride_tricks.sliding_window_view(
            rec.channels, config.size, axis=0
        ).transpose(0, 2, 1)
        starts = np.arange(n_windows) * config.stride
        blocks.append(view[starts].copy())
        key = _group_key(rec, group_by)
        for s in starts:
            label, transition = assign_window_label(
                rec.labels[s : s + config.size], config.label_policy
            )
            if label >= num_classes:
                raise ValueError(
                    f"window label {label} outside 0..{num_classes - 1}"
                )
            windows.append(
                Window(
                    window_id=len(windows),
                    start_sample=offset + int(s),
                    end_sample=offset + int(s) + config.size,
                    label=label,
                    group_key=key,
                    recording_index=rec_index,
                    transition=transition,
                )
            )
        offset += n
    if blocks:
        all_blocks = np.concatenate(blocks, axis=0)
    else:
        n_channels = recordings[0].num_channels
        all_blocks = np.empty((0, config.size, n_channels), dtype=float)
    return WindowedDataset(
        windows=windows,
        blocks=all_blocks,
        num_classes=num_classes,
        config=config,
        recording_spans=spans,
    )


def fit_normalizer(
    dataset: WindowedDataset, window_ids: Sequence[int] | None = None
) -> ChannelStats:
    """Per-channel mean/std over the given (training) windows' samples.

    ``window_ids`` defaults to all windows; pass the training split here so
    test windows never leak into the statistics.
    """
    if window_ids is None:
        ids = np.arange(dataset.num_windows)
    else:
        ids = np.asarray(list(window_ids), dtype=int)
    if ids.size == 0:
        raise ValueError("cannot fit a normalizer on an empty training split")
    samples = dataset.blocks[ids].reshape(-1, dataset.num_channels)
    mean = samples.mean(axis=0)
    std = samples.std(axis=0)
    std = np.where(std < DEGENERATE_STD, 1.0, std)
    return ChannelStats(mean=mean, std=std)


def apply_normalizer(dataset: WindowedDataset, stats: ChannelStats) -> WindowedDataset:
    """Return a new dataset with channels transformed to (x - mean) / std."""
    blocks = dataset.blocks - stats.mean
    blocks /= stats.std  # in place: one corpus-sized copy, not two
    return replace(dataset, blocks=blocks)
