"""Canonical sensor-recording ingestion and corpus-level label bookkeeping.

The canonical on-disk format is a UTF-8 CSV with header
``subject_id,session_id,label,<channel_0>,...,<channel_{n-1}>`` and one row
per sample at a uniform rate. Empty channel cells mark missing values and
are repaired by forward-fill then backward-fill within each recording.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

import numpy as np

from ._io import open_text, write_csv

REQUIRED_COLUMNS = ("subject_id", "session_id", "label")


class CanonicalFormatError(ValueError):
    """Malformed canonical recording CSV; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class SensorRecording:
    """One contiguous multichannel sample stream with per-sample labels.

    ``channels`` is shaped [num_samples, num_channels] and ``labels`` holds one
    non-negative class id per sample. ``subject_id``/``session_id`` identify
    the group the recording belongs to for leave-out splitting.
    """

    channels: np.ndarray
    labels: np.ndarray
    subject_id: str
    session_id: str
    channel_names: list[str]

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.channels.ndim != 2:
            raise ValueError("channels must be a 2-D [samples x channels] array")
        if self.channels.shape[1] < 1:
            raise ValueError("a recording needs at least one channel")
        if self.labels.shape != (self.num_samples,):
            raise ValueError(
                f"labels length {self.labels.shape} does not match "
                f"{self.num_samples} samples"
            )
        if len(self.channel_names) != self.num_channels:
            raise ValueError("channel_names must name every channel")
        if self.num_samples and int(self.labels.min()) < 0:
            raise ValueError("labels must be non-negative class ids")

    @property
    def num_samples(self) -> int:
        return self.channels.shape[0]

    @property
    def num_channels(self) -> int:
        return self.channels.shape[1]


def _fill_missing(column: np.ndarray) -> tuple[np.ndarray, int]:
    """Forward-fill then backward-fill NaNs in a 1-D array.

    Returns the repaired column and the number of cells filled. A column with
    no finite value at all cannot be repaired and is returned unchanged.
    """
    missing = np.isnan(column)
    n_missing = int(missing.sum())
    if n_missing == 0 or n_missing == len(column):
        return column, 0
    idx = np.where(~missing, np.arange(len(column)), -1)
    np.maximum.accumulate(idx, out=idx)
    filled = np.where(idx >= 0, column[np.maximum(idx, 0)], np.nan)
    # Leading gap: backward-fill from the first observed value.
    still = np.isnan(filled)
    if still.any():
        first = int(np.flatnonzero(~still)[0])
        filled[:first] = filled[first]
    return filled, n_missing


def parse_canonical(source) -> tuple[list[SensorRecording], int]:
    """Parse a canonical recording CSV into recordings grouped by (subject, session).

    ``source`` may be a path or a text stream. Returns the recordings in
    order of first appearance plus the total count of repaired (filled) cells.
    Rows stream into one typed buffer per recording, which the returned arrays
    wrap without a copy, so memory scales with those arrays.

    Raises CanonicalFormatError for an empty file, a malformed header, a
    non-integer label or one outside int64, or a channel cell that is neither
    numeric nor empty.
    """
    with open_text(source) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CanonicalFormatError("empty file") from None
        header = [h.strip() for h in header]
        if tuple(header[:3]) != REQUIRED_COLUMNS or len(header) < 4:
            raise CanonicalFormatError(
                "header must be subject_id,session_id,label,<channel...>", line=1
            )
        channel_names = header[3:]
        n_channels = len(channel_names)

        # key -> (labels, channel values row after row)
        groups: dict[tuple[str, str], tuple[array, array]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CanonicalFormatError(
                    f"expected {len(header)} cells, found {len(row)}", line=lineno
                )
            subject, session, label_cell = row[0], row[1], row[2]
            try:
                label = int(label_cell)
            except ValueError:
                raise CanonicalFormatError(
                    f"label {label_cell!r} is not an integer", line=lineno
                ) from None
            if label < 0:
                raise CanonicalFormatError(f"label {label} is negative", line=lineno)
            labels, values = groups.setdefault((subject, session), (array("q"), array("d")))
            try:
                labels.append(label)
            except OverflowError:
                raise CanonicalFormatError(
                    f"label {label} does not fit in int64", line=lineno
                ) from None
            for name, cell in zip(channel_names, row[3:]):
                cell = cell.strip()
                if cell == "":
                    values.append(np.nan)
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise CanonicalFormatError(
                        f"channel {name!r} cell {cell!r} is not numeric", line=lineno
                    ) from None
    if not groups:
        raise CanonicalFormatError("file contains a header but no samples")

    recordings = []
    repaired = 0
    for (subject, session), (labels, values) in groups.items():
        channels = np.frombuffer(values).reshape(len(labels), n_channels)
        for c in range(n_channels):
            channels[:, c], n = _fill_missing(channels[:, c])
            repaired += n
        if np.isnan(channels).any():
            bad = [channel_names[c] for c in np.unique(np.nonzero(np.isnan(channels))[1])]
            raise CanonicalFormatError(
                f"recording ({subject!r}, {session!r}): channel(s) {bad} hold no "
                "numeric value to repair from"
            )
        recordings.append(
            SensorRecording(
                channels=channels,
                labels=np.frombuffer(labels, dtype=np.int64),
                subject_id=subject,
                session_id=session,
                channel_names=list(channel_names),
            )
        )
    return recordings, repaired


def write_canonical(recordings: list[SensorRecording], dest) -> None:
    """Write recordings back to canonical CSV (floats as shortest round-trip text)."""
    if not recordings:
        raise ValueError("nothing to write")
    names = recordings[0].channel_names
    for rec in recordings:
        if rec.channel_names != names:
            raise ValueError("all recordings must share one channel layout")
    rows = ([rec.subject_id, rec.session_id, label, *map(repr, rec.channels[i].tolist())]
            for rec in recordings for i, label in enumerate(rec.labels.tolist()))
    write_csv(list(REQUIRED_COLUMNS) + names, rows, dest)


def corpus_num_classes(recordings: list[SensorRecording]) -> int:
    """Number of classes across a corpus; ids must form a contiguous 0..C-1 set."""
    if not recordings:
        raise ValueError("empty corpus")
    # bincount, not np.unique: in numpy 2 that imports numpy.ma.
    seen = {c for rec in recordings for c in np.flatnonzero(np.bincount(rec.labels)).tolist()}
    if not seen:
        raise ValueError("corpus holds no labelled samples")
    c = max(seen) + 1
    missing = sorted(set(range(c)) - seen)
    if missing:
        raise ValueError(f"class ids are not contiguous, missing {missing}")
    return c
