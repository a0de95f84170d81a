"""Sliding-window slicing, window labelling, and train-split normalization."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._io import read_csv, write_csv
from .recordings import SensorRecording, corpus_num_classes

LABEL_POLICIES = ("majority", "last_sample")
#: Split-group unit -> the group key of a recording's windows.
GROUP_UNITS = {
    "subject": lambda rec: rec.subject_id,
    "subject_session": lambda rec: f"{rec.subject_id}::{rec.session_id}",
}
WINDOW_HEADER = (
    "window_id", "start_sample", "end_sample", "label",
    "group_key", "recording_index", "transition",
)

#: Channels whose spread falls below this are normalized with divisor 1.
DEGENERATE_STD = 1e-9
#: Bytes of samples per chunk when a pass streams over the window blocks.
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class WindowConfig:
    """The slicing recipe: window length and stride in samples, the window-label
    policy and the split-group unit. The field names are the ``windows`` flags
    and the windows_meta.json keys."""

    window_size: int = 200
    stride: int = 100
    label_policy: str = "majority"
    group_by: str = "subject"

    def __post_init__(self):
        if not 1 <= self.stride <= self.window_size:
            raise ValueError(
                f"need 1 <= stride <= window_size, got {self.stride}/{self.window_size}"
            )
        if self.label_policy not in LABEL_POLICIES:
            raise ValueError(f"unknown label policy {self.label_policy!r}")
        if self.group_by not in GROUP_UNITS:
            raise ValueError(f"unknown group unit {self.group_by!r}")


@dataclass(eq=False)  # arrays have no single truth value; tables compare by identity
class WindowTable:
    """Window metadata as columns, row i holding window i.

    ``bounds`` is [windows, 2] global (start, end) sample indices, ``group``
    each window's split-group key, ``recording`` the index of its recording,
    and ``transition`` whether its samples carry more than one label.
    """

    bounds: np.ndarray
    label: np.ndarray
    group: np.ndarray
    recording: np.ndarray
    transition: np.ndarray

    def __len__(self) -> int:
        return int(self.label.size)


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel normalization statistics.

    ``std`` stores the divisor actually applied: channels whose raw spread is
    below DEGENERATE_STD record 1.0 so the transform stays invertible.
    """

    mean: np.ndarray
    std: np.ndarray

    def normalize(self, blocks: np.ndarray) -> np.ndarray:
        """A new array of ``blocks`` transformed to (x - mean) / std."""
        out = blocks - self.mean
        out /= self.std  # in place: one copy of ``blocks``, not two
        return out


@dataclass
class WindowedDataset:
    """Fixed-length windows over one or more recordings.

    Sample indices are global over the concatenated corpus stream; windows
    never span recording boundaries. ``blocks`` is [num_windows, size,
    num_channels] and is aligned with ``windows``.
    """

    windows: WindowTable
    blocks: np.ndarray
    num_classes: int
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


def write_windows(windows: WindowTable, dest) -> None:
    """windows.csv: one row per window under WINDOW_HEADER."""
    rows = zip(range(len(windows)), *windows.bounds.T.tolist(), windows.label.tolist(),
               windows.group.tolist(), windows.recording.tolist(),
               windows.transition.astype(int).tolist())
    write_csv(WINDOW_HEADER, rows, dest)


def read_windows(src) -> WindowTable:
    """A windows.csv file as a table; window ids are the row positions."""
    _, start, end, label, group, recording, transition = read_csv(WINDOW_HEADER, src)
    return WindowTable(
        bounds=np.array([start, end], dtype=np.int64).T,
        label=np.array(label, dtype=np.int64),
        group=np.array(group, dtype=str),
        recording=np.array(recording, dtype=np.int64),
        transition=np.array(transition, dtype=np.int64).astype(bool),
    )


def _window_labels(labels: np.ndarray, starts: np.ndarray, config: WindowConfig):
    """Label and transition flag of the windows of one recording.

    Per-class cumulative counts give every window's class counts at once.
    ``majority`` picks the most frequent class, ties to the lowest id, and
    ``last_sample`` the final sample. A window is a transition when no one
    class fills it, whatever the policy.
    """
    ends = starts + config.window_size
    classes = np.flatnonzero(np.bincount(labels))  # ascending: ties go to the lowest id
    counts = np.empty((starts.size, classes.size), dtype=np.int64)
    cumulative = np.zeros(labels.size + 1, dtype=np.int64)
    for i, c in enumerate(classes):
        np.cumsum(labels == c, out=cumulative[1:])
        counts[:, i] = cumulative[ends] - cumulative[starts]
    transition = counts.max(axis=1) < config.window_size
    if config.label_policy == "last_sample":
        return labels[ends - 1], transition
    return classes[counts.argmax(axis=1)], transition


def slice_corpus(
    recordings: Sequence[SensorRecording],
    config: WindowConfig,
    num_classes: int | None = None,
) -> WindowedDataset:
    """Slice every recording into windows with dense ids in recording order."""
    if not recordings:
        raise ValueError("empty corpus")
    if num_classes is None:
        num_classes = corpus_num_classes(list(recordings))
    for rec_index, rec in enumerate(recordings):
        if rec.num_channels != recordings[0].num_channels:
            raise ValueError(
                f"recording {rec_index} has {rec.num_channels} channels, "
                f"recording 0 has {recordings[0].num_channels}"
            )
    counts = [(rec.num_samples - config.window_size) // config.stride + 1
              if rec.num_samples >= config.window_size else 0 for rec in recordings]
    # Each window is copied once, straight into its rows of ``blocks``.
    blocks = np.empty((sum(counts), config.window_size, recordings[0].num_channels))
    columns = []  # per recording: starts, labels, transitions, recording, group
    spans: list[tuple[int, int]] = []
    offset = first = 0
    for rec_index, (rec, n_windows) in enumerate(zip(recordings, counts)):
        n = rec.num_samples
        spans.append((offset, offset + n))
        if not n_windows:
            warnings.warn(
                f"recording {rec_index} has {n} samples, shorter than one "
                f"window of {config.window_size}; no windows emitted",
                stacklevel=2,
            )
            offset += n
            continue
        # [n_windows, channels, size] view of every stride-th window.
        view = np.lib.stride_tricks.sliding_window_view(
            rec.channels, config.window_size, axis=0
        )[::config.stride]
        blocks[first:first + n_windows] = view.transpose(0, 2, 1)
        starts = np.arange(n_windows) * config.stride
        label, transition = _window_labels(rec.labels, starts, config)
        columns.append((offset + starts, label, transition, np.full(n_windows, rec_index),
                        np.full(n_windows, GROUP_UNITS[config.group_by](rec))))
        offset += n
        first += n_windows
    if not columns:  # every recording is shorter than one window
        columns = [(np.zeros(0, dtype=int),) * 5]
    start, label, transition, recording, group = map(np.concatenate, zip(*columns))
    if np.any(label >= num_classes):
        raise ValueError(
            f"window label {label[label >= num_classes][0]} outside 0..{num_classes - 1}"
        )
    windows = WindowTable(
        bounds=np.stack([start, start + config.window_size], axis=1),
        label=label,
        group=group.astype(str),
        recording=recording,
        transition=transition.astype(bool),
    )
    return WindowedDataset(
        windows=windows,
        blocks=blocks,
        num_classes=num_classes,
        recording_spans=spans,
    )


def chunk_windows(dataset: WindowedDataset) -> int:
    """Windows per chunk of a pass over the blocks: CHUNK_BYTES of samples,
    at least one window."""
    window_bytes = dataset.blocks.itemsize * int(np.prod(dataset.blocks.shape[1:]))
    return max(1, CHUNK_BYTES // max(1, window_bytes))


def _sum_samples(dataset: WindowedDataset, ids: np.ndarray, chunk: int,
                 center: np.ndarray | None = None) -> np.ndarray:
    """Per-channel sum of the samples of windows ``ids``, or of their squared
    deviations from ``center``, read ``chunk`` windows at a time.

    numpy reduces axis 0 of a C-contiguous [rows, channels] array of two or
    more channels by adding one row at a time, so carrying the running sum in
    as row 0 of the next chunk repeats the one-shot sum bit for bit.
    """
    _, size, channels = dataset.blocks.shape
    buf = np.empty((1 + min(chunk, ids.size) * size, channels))
    total = None
    for start in range(0, ids.size, chunk):
        part = ids[start:start + chunk]
        rows = buf[:1 + part.size * size]
        # mode="clip" spares take a bounds-checking buffer; the ids are checked.
        np.take(dataset.blocks, part, axis=0, mode="clip",
                out=rows[1:].reshape(part.size, size, channels))
        if center is not None:  # numpy's own var sequence: x = rows - mean; x *= x
            rows[1:] -= center
            rows[1:] *= rows[1:]
        if total is None:
            rows = rows[1:]
        else:
            rows[0] = total
        total = np.add.reduce(rows, axis=0)
    return total


def fit_normalizer(
    dataset: WindowedDataset, window_ids: Sequence[int] | None = None
) -> ChannelStats:
    """Per-channel mean/std over the given (training) windows' samples.

    ``window_ids`` defaults to all windows; pass the training split here so
    test windows never leak into the statistics. The samples are read in
    chunks of CHUNK_BYTES, so beyond the blocks the fit holds one chunk. A
    one-channel corpus is read in one chunk: numpy sums a lone contiguous
    column pairwise, which a carried sum cannot repeat. The results are
    bit-identical to ``samples.mean(axis=0)`` and ``samples.std(axis=0)``
    over all the selected samples at once.
    """
    if window_ids is None:
        ids = np.arange(dataset.num_windows)
    else:
        ids = np.asarray(list(window_ids), dtype=int)
    if ids.size == 0:
        raise ValueError("cannot fit a normalizer on an empty training split")
    outside = (ids < 0) | (ids >= dataset.num_windows)
    if outside.any():
        raise ValueError(
            f"window id {ids[outside][0]} outside 0..{dataset.num_windows - 1}"
        )
    chunk = ids.size if dataset.num_channels == 1 else chunk_windows(dataset)
    count = ids.size * dataset.blocks.shape[1]
    mean = _sum_samples(dataset, ids, chunk) / count
    std = np.sqrt(_sum_samples(dataset, ids, chunk, center=mean) / count)
    std = np.where(std < DEGENERATE_STD, 1.0, std)
    return ChannelStats(mean=mean, std=std)
