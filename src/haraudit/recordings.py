"""Canonical sensor-recording ingestion and corpus-level label bookkeeping.

The canonical on-disk format is a UTF-8 CSV with header
``subject_id,session_id,label,<channel_0>,...,<channel_{n-1}>`` and one row
per sample at a uniform rate. Empty channel cells mark missing values and
are repaired by forward-fill then backward-fill within each recording.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._io import open_text

REQUIRED_COLUMNS = ("subject_id", "session_id", "label")
#: The subject, session and label cells that open a line with more cells, and
#: the rest of that line: one match per CSV row when no cell is quoted.
_LEAD = re.compile(r"([^,\n]*,[^,\n]*,[^,\n]*),[^\n]*")


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


def _fill_missing(channels: np.ndarray, names: list[str]) -> tuple[int, list[str]]:
    """Forward-fill then backward-fill the NaNs of each channel column, in place.

    Returns the number of cells filled and the names of the columns with no
    finite value at all, which cannot be repaired and are left unchanged.
    """
    filled, empty = 0, []
    for column, name in zip(channels.T, names):
        missing = np.isnan(column)
        n_missing = int(missing.sum())
        if n_missing == len(column):
            empty.append(name)
        elif n_missing:
            # Each cell takes the last observed value at or before it, and a
            # leading gap the first observed value.
            idx = np.where(missing, missing.argmin(), np.arange(len(column)))
            np.maximum.accumulate(idx, out=idx)
            column[:] = column[idx]
            filled += n_missing
    return filled, empty


def parse_canonical(source) -> tuple[list[SensorRecording], int]:
    """Parse a canonical recording CSV into recordings grouped by (subject, session).

    ``source`` may be a path or a text stream. Returns the recordings in
    order of first appearance plus the total count of repaired (filled) cells.

    Cells follow csv.reader and Python's ``float``/``int``: whitespace around
    a cell is allowed and an empty channel cell means missing. The source is
    read once, front to back, in batches of lines, each read in bulk. From
    the first batch the bulk read does not take exactly as the per-cell
    reader would (an empty or non-numeric cell, quotes, a bad label, an odd
    line), csv.reader reads the rest cell by cell, which repairs gaps and
    names every error. Memory scales with the returned arrays.

    Raises CanonicalFormatError for an empty file, a malformed header, a
    non-integer label or one outside int64, or a channel cell that is neither
    numeric nor empty.
    """
    with open_text(source) as fh:
        try:
            header = [cell.strip() for cell in next(csv.reader(fh))]
        except StopIteration:
            raise CanonicalFormatError("empty file") from None
        if tuple(header[:3]) != REQUIRED_COLUMNS or len(header) < 4:
            raise CanonicalFormatError(
                "header must be subject_id,session_id,label,<channel...>", line=1
            )
        rows = _Rows(header[3:])
        line = 2  # csv.reader's number for the next row; each bulk line is one row
        while lines := fh.readlines(1 << 14):  # batches of 16 KiB bound the bulk read's memory
            if not rows.take_bulk(lines):
                rows.take_cells(csv.reader(chain(lines, fh)), line)
                break
            line += len(lines)
    recordings = []
    repaired = 0
    for (subject, session), labels, channels in rows.groups():
        filled, empty = _fill_missing(channels, rows.names)
        if empty:
            raise CanonicalFormatError(
                f"recording ({subject!r}, {session!r}): channel(s) {empty} hold no "
                "numeric value to repair from"
            )
        repaired += filled
        recordings.append(
            SensorRecording(
                channels=channels,
                labels=labels,
                subject_id=subject,
                session_id=session,
                channel_names=list(rows.names),
            )
        )
    return recordings, repaired


class _Rows:
    """Rows in file order: ``keys`` numbers each (subject, session) by first
    appearance, ``runs`` holds ``[code, rows]`` per stretch of one recording,
    ``values`` every channel value, and ``labels`` the labels in blocks, so that
    only ``values`` grows (two buffers growing side by side fragment the heap)."""

    def __init__(self, names: list[str]):
        self.names = names
        self.keys: dict[tuple[str, str], int] = {}
        self.runs: list[list[int]] = []
        self.labels: list[array] = []  # one per bulk batch, then one for the cell-by-cell rows
        self.values = array("d")
        self.leads: dict[str, tuple[int, int]] = {}  # "subject,session,label" -> (code, label)

    def add_run(self, code: int, rows: int) -> None:
        if self.runs and self.runs[-1][0] == code:
            self.runs[-1][1] += rows
        else:
            self.runs.append([code, rows])

    def take_bulk(self, lines: list[str]) -> bool:
        """Take a batch of lines if the bulk read gives what ``take_cells`` would
        without a repair or an error; a refused batch leaves no trace.

        ``np.loadtxt`` parses the channel values; it refuses an empty cell and a
        short row, and takes no float syntax that ``float`` reads otherwise. The
        text may hold nothing csv.reader could split otherwise: no quote, no NUL
        (refused before Python 3.11), no line over its field size limit.
        """
        text = "".join(lines)
        if '"' in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
            return False
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # also refuses "input contained no data"
                values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                                    usecols=range(3, 3 + len(self.names)))
        except (ValueError, Warning):
            return False
        leads = _LEAD.findall(text)
        # loadtxt took every nonblank line as a row of at least the header's
        # cells, and a row gives at most one lead, so this total holds only
        # when every row has exactly the header's cells and one lead.
        if text.count(",") != (len(self.names) + 2) * len(leads):
            return False
        try:  # each distinct (subject, session, label) lead is parsed once
            new = {lead: int(lead.rsplit(",", 1)[1])
                   for lead in dict.fromkeys(leads) if lead not in self.leads}
        except ValueError:
            return False
        if not all(0 <= label < 2**63 for label in new.values()):
            return False
        for lead, label in new.items():
            subject, session, _ = lead.split(",")
            self.leads[lead] = (self.keys.setdefault((subject, session), len(self.keys)), label)
        codes, labels = zip(*map(self.leads.__getitem__, leads))
        codes = np.array(codes, dtype=np.int64)
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        for code, rows in zip(codes[starts].tolist(), np.diff(starts, append=len(codes)).tolist()):
            self.add_run(code, rows)
        self.values.frombytes(memoryview(values).cast("B"))
        self.labels.append(array("q", labels))
        return True

    def take_cells(self, reader, line: int) -> None:
        """Take every row ``reader`` yields, cell by cell; ``line`` numbers its first row."""
        width = len(self.names) + 3
        self.labels.append(labels := array("q"))
        for lineno, row in enumerate(reader, start=line):
            if not row:
                continue
            if len(row) != width:
                raise CanonicalFormatError(
                    f"expected {width} cells, found {len(row)}", line=lineno
                )
            subject, session, label_cell = row[0], row[1], row[2]
            # numpy text drops a trailing NUL, so "s\0" would group as "s".
            if "\0" in subject or "\0" in session:
                raise CanonicalFormatError(
                    f"subject {subject!r} or session {session!r} holds U+0000", line=lineno
                )
            try:
                label = int(label_cell)
            except ValueError:
                raise CanonicalFormatError(
                    f"label {label_cell!r} is not an integer", line=lineno
                ) from None
            if label < 0:
                raise CanonicalFormatError(f"label {label} is negative", line=lineno)
            if label >= 2**63:
                raise CanonicalFormatError(f"label {label} does not fit in int64", line=lineno)
            labels.append(label)
            self.add_run(self.keys.setdefault((subject, session), len(self.keys)), 1)
            for name, cell in zip(self.names, row[3:]):
                cell = cell.strip()
                if cell == "":
                    self.values.append(np.nan)
                    continue
                try:
                    self.values.append(float(cell))
                except ValueError:
                    raise CanonicalFormatError(
                        f"channel {name!r} cell {cell!r} is not numeric", line=lineno
                    ) from None

    def groups(self) -> list[tuple[tuple[str, str], np.ndarray, np.ndarray]]:
        """(key, labels, channels) per recording: slices of the rows when each
        recording is one run, else the rows regrouped by one stable argsort."""
        if not self.runs:
            raise CanonicalFormatError("file contains a header but no samples")
        labels = np.concatenate(self.labels, dtype=np.int64)
        values = np.frombuffer(self.values).reshape(len(labels), len(self.names))
        run_codes, run_rows = np.array(self.runs, dtype=np.int64).T
        if len(self.runs) > len(self.keys):  # interleaved recordings
            codes = np.repeat(run_codes, run_rows)
            order = np.argsort(codes, kind="stable")
            values, labels = values[order], labels[order]
            run_rows = np.bincount(codes, minlength=len(self.keys))  # now one run per key
        ends = np.cumsum(run_rows).tolist()
        return [(key, labels[start:end], values[start:end])
                for key, start, end in zip(self.keys, [0] + ends, ends)]


def write_canonical(recordings: list[SensorRecording], dest) -> None:
    """Write recordings back to canonical CSV (floats as shortest round-trip text).

    Each recording's ids are quoted once by csv.writer; its rows are then
    joined as text, giving the bytes csv.writer would write for them.
    """
    if not recordings:
        raise ValueError("nothing to write")
    names = recordings[0].channel_names
    for rec in recordings:
        if rec.channel_names != names:
            raise ValueError("all recordings must share one channel layout")
    with open_text(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(REQUIRED_COLUMNS) + names)
        for rec in recordings:
            ids = io.StringIO()
            csv.writer(ids, lineterminator="\n").writerow([rec.subject_id, rec.session_id, ""])
            prefix = ids.getvalue()[:-1]
            fh.writelines(f"{prefix}{label},{','.join(map(repr, row))}\n"
                          for label, row in zip(rec.labels.tolist(), rec.channels.tolist()))


def corpus_num_classes(recordings: list[SensorRecording]) -> int:
    """Number of classes across a corpus; ids must form a contiguous 0..C-1 set, C >= 2."""
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
    if c < 2:
        raise ValueError("corpus holds one class; an audit needs at least two")
    return c
