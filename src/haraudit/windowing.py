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
#: Bytes of samples per chunk when a pass streams over the windows.
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

    def normalize(self, blocks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``blocks`` transformed to (x - mean) / std, in a new array or in
        ``out``, which may be ``blocks`` itself."""
        out = np.subtract(blocks, self.mean, out=out)
        out /= self.std  # in place: one copy of ``blocks``, not two
        return out


@dataclass
class WindowedDataset:
    """Fixed-length windows over one or more recordings.

    Sample indices are global over the concatenated corpus stream; windows
    never span recording boundaries. ``views`` holds, per recording, a
    zero-copy [windows, size, channels] strided view of its samples, empty
    for a recording shorter than one window, so the windows' samples exist
    once, in the recordings. ``gather`` copies the windows a pass asks for.
    """

    windows: WindowTable
    views: list[np.ndarray]
    window_size: int
    num_channels: int
    num_classes: int
    recording_spans: list[tuple[int, int]] = field(default_factory=list)
    #: The id of each recording's first window.
    first: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.first = np.cumsum([0] + [len(view) for view in self.views[:-1]])

    @property
    def num_windows(self) -> int:
        return len(self.windows)

    @property
    def total_samples(self) -> int:
        return self.recording_spans[-1][1] if self.recording_spans else 0

    def gather(self, ids, out: np.ndarray | None = None) -> np.ndarray:
        """The samples of windows ``ids`` as [len(ids), size, channels], row i
        holding window ``ids[i]``, written into ``out`` when given.

        Each run of consecutive ids in one recording is copied as one slice
        of its view, a lone id as a run of one, so nothing is copied twice.
        ``np.take(view, ids, out=...)`` would first copy the whole strided
        view, and fancy indexing makes a temporary copy of what it takes.
        Raises ValueError, before copying anything, for an id outside
        0..num_windows-1.
        """
        ids = np.asarray(ids, dtype=np.intp)
        outside = (ids < 0) | (ids >= self.num_windows)
        if outside.any():
            raise ValueError(f"window id {ids[outside][0]} outside 0..{self.num_windows - 1}")
        if out is None:
            out = np.empty((ids.size, self.window_size, self.num_channels))
        if not ids.size:
            return out
        recording = self.windows.recording[ids]
        # np.flatnonzero rather than np.unique, which imports numpy.ma.
        starts = np.flatnonzero(np.concatenate(
            ([True], (np.diff(ids) != 1) | (np.diff(recording) != 0))))
        stops = np.append(starts[1:], ids.size).tolist()
        lows = (ids[starts] - self.first[recording[starts]]).tolist()
        for a, b, r, lo in zip(starts.tolist(), stops, recording[starts].tolist(), lows):
            out[a:b] = self.views[r][lo:lo + b - a]
        return out

    def chunks(self, ids: np.ndarray, chunk: int):
        """(position, rows, samples) for each ``chunk`` ids of ``ids`` in order.

        ``rows`` is a [1 + n * size, channels] buffer whose row 0 is free for
        a sum the caller carries; ``samples``, its rows 1 on as [n, size,
        channels], holds windows ``ids[position:position + n]``. One buffer
        serves every chunk, so a chunk is overwritten by the next. Every pass
        gets a buffer of this one shape, so a ``train-baseline`` fold's
        features pass reuses the block its fit has just freed.
        """
        size, channels = self.window_size, self.num_channels
        buf = np.empty((1 + min(chunk, ids.size) * size, channels))
        for start in range(0, ids.size, chunk):
            part = ids[start:start + chunk]
            rows = buf[:1 + part.size * size]
            samples = rows[1:].reshape(part.size, size, channels)
            yield start, rows, self.gather(part, out=samples)


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
    channels = recordings[0].num_channels
    columns = []  # per recording: starts, labels, transitions, recording, group
    views: list[np.ndarray] = []
    spans: list[tuple[int, int]] = []
    offset = 0
    for rec_index, rec in enumerate(recordings):
        n = rec.num_samples
        spans.append((offset, offset + n))
        if n < config.window_size:
            warnings.warn(
                f"recording {rec_index} has {n} samples, shorter than one "
                f"window of {config.window_size}; no windows emitted",
                stacklevel=2,
            )
            views.append(np.empty((0, config.window_size, channels)))
            offset += n
            continue
        # [n_windows, size, channels] view of every stride-th window: no copy.
        views.append(np.lib.stride_tricks.sliding_window_view(
            rec.channels, config.window_size, axis=0
        )[::config.stride].transpose(0, 2, 1))
        n_windows = len(views[-1])
        starts = np.arange(n_windows) * config.stride
        label, transition = _window_labels(rec.labels, starts, config)
        columns.append((offset + starts, label, transition, np.full(n_windows, rec_index),
                        np.full(n_windows, GROUP_UNITS[config.group_by](rec))))
        offset += n
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
        views=views,
        window_size=config.window_size,
        num_channels=channels,
        num_classes=num_classes,
        recording_spans=spans,
    )


def chunk_windows(dataset: WindowedDataset) -> int:
    """Windows per chunk of a pass over the windows' samples: CHUNK_BYTES of
    float64 samples, at least one window."""
    window_bytes = 8 * dataset.window_size * dataset.num_channels
    return max(1, CHUNK_BYTES // max(1, window_bytes))


def _sum_samples(dataset: WindowedDataset, ids: np.ndarray, chunk: int,
                 center: np.ndarray | None = None) -> np.ndarray:
    """Per-channel sum of the samples of windows ``ids``, or of their squared
    deviations from ``center``, read ``chunk`` windows at a time.

    numpy reduces axis 0 of a C-contiguous [rows, channels] array of two or
    more channels by adding one row at a time, so carrying the running sum in
    as row 0 of the next chunk repeats the one-shot sum bit for bit.
    """
    total = None
    for _, rows, _ in dataset.chunks(ids, chunk):
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
    test windows never leak into the statistics. The samples are gathered
    from the recordings in chunks of CHUNK_BYTES, so the fit holds one chunk
    of window samples whatever the number of windows. A
    one-channel corpus is read in one chunk: numpy sums a lone contiguous
    column pairwise, which a carried sum cannot repeat. The results are
    bit-identical to ``samples.mean(axis=0)`` and ``samples.std(axis=0)``
    over all the selected samples at once. An id outside
    0..num_windows-1 raises ValueError, as in ``WindowedDataset.gather``.
    """
    if window_ids is None:
        ids = np.arange(dataset.num_windows)
    else:
        ids = np.asarray(list(window_ids), dtype=int)
    if ids.size == 0:
        raise ValueError("cannot fit a normalizer on an empty training split")
    chunk = ids.size if dataset.num_channels == 1 else chunk_windows(dataset)
    count = ids.size * dataset.window_size
    mean = _sum_samples(dataset, ids, chunk) / count
    std = np.sqrt(_sum_samples(dataset, ids, chunk, center=mean) / count)
    std = np.where(std < DEGENERATE_STD, 1.0, std)
    return ChannelStats(mean=mean, std=std)
