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

    Cells follow csv.reader and Python's ``float``/``int``: whitespace around
    a cell is allowed and an empty channel cell means missing. A seekable
    source is read in bulk first: ``np.loadtxt`` parses the channel values
    and one pass over the lines reads the ids and labels. Input the bulk read
    does not take exactly as the per-cell reader would (an empty or
    non-numeric cell, quotes, a bad label, an odd line) is read again cell by
    cell, which repairs gaps and names every error. Memory scales with the
    returned arrays in both cases.

    Raises CanonicalFormatError for an empty file, a malformed header, a
    non-integer label or one outside int64, or a channel cell that is neither
    numeric nor empty.
    """
    with open_text(source) as fh:
        try:
            start = fh.tell() if fh.seekable() else None
        except OSError:  # a file iterated with next() cannot tell its position
            start = None
        parsed = None if start is None else _read_bulk(fh)
        if parsed is None:
            if start is not None:
                fh.seek(start)
            parsed = _read_cells(fh)
    channel_names, groups = parsed
    if not groups:
        raise CanonicalFormatError("file contains a header but no samples")

    recordings = []
    repaired = 0
    for (subject, session), labels, channels in groups:
        for c in range(len(channel_names)):
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
                labels=labels,
                subject_id=subject,
                session_id=session,
                channel_names=list(channel_names),
            )
        )
    return recordings, repaired


def _channel_names(header: list[str]) -> list[str] | None:
    """The channel names a canonical header row declares, or None if it is not one."""
    header = [h.strip() for h in header]
    if tuple(header[:3]) != REQUIRED_COLUMNS or len(header) < 4:
        return None
    return header[3:]


def _read_cells(fh):
    """Channel names and (key, labels, channels) per recording, read cell by cell.

    The reference reader: it takes every input ``parse_canonical`` accepts and
    raises every error it reports.
    """
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise CanonicalFormatError("empty file") from None
    channel_names = _channel_names(header)
    if channel_names is None:
        raise CanonicalFormatError(
            "header must be subject_id,session_id,label,<channel...>", line=1
        )
    width = len(header)

    # key -> (labels, channel values row after row)
    groups: dict[tuple[str, str], tuple[array, array]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise CanonicalFormatError(
                f"expected {width} cells, found {len(row)}", line=lineno
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
    return channel_names, [
        (key, np.frombuffer(labels, dtype=np.int64),
         np.frombuffer(values).reshape(len(labels), len(channel_names)))
        for key, (labels, values) in groups.items()
    ]


def _read_bulk(fh):
    """``_read_cells``'s result for input it would read without a repair or an
    error, else None, leaving ``fh`` anywhere.

    ``np.loadtxt`` parses the channel values: it refuses an empty cell and a
    short row, and accepts no float syntax that ``float`` reads otherwise. One
    pass over the lines then reads ids and labels. It refuses lines that
    csv.reader could split otherwise and a cell count that is not the
    header's, and parses each distinct (subject, session, label) lead once,
    with ``int``.
    """
    limit = csv.field_size_limit()
    header = fh.readline()
    if _unquoted_text([header], limit) is None:
        return None
    channel_names = _channel_names(header.rstrip("\r\n").split(","))
    if channel_names is None:
        return None
    body = fh.tell()
    # Values first: a gappy source fails at its first empty cell.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # also refuses "input contained no data"
            values = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                                usecols=range(3, 3 + len(channel_names)))
    except (ValueError, Warning):
        return None
    fh.seek(body)
    keys, lead_code, lead_label = {}, {}, {}
    runs, labels = [], array("q")  # runs: [code, rows] per stretch of one recording
    commas = 0
    while lines := fh.readlines(1 << 14):  # batches of 16 KiB bound the pass's memory
        text = _unquoted_text(lines, limit)
        if text is None:
            return None
        commas += text.count(",")
        leads = _LEAD.findall(text)
        for lead in dict.fromkeys(leads):
            if lead not in lead_code:
                subject, session, label = lead.split(",")
                try:
                    lead_label[lead] = int(label)
                except ValueError:
                    return None
                if not 0 <= lead_label[lead] < 2**63:
                    return None
                lead_code[lead] = keys.setdefault((subject, session), len(keys))
        codes = np.fromiter(map(lead_code.__getitem__, leads), dtype=np.int64, count=len(leads))
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        for code, rows in zip(codes[starts].tolist(), np.diff(starts, append=len(codes)).tolist()):
            if runs and runs[-1][0] == code:
                runs[-1][1] += rows
            else:
                runs.append([code, rows])
        labels.extend(map(lead_label.__getitem__, leads))
    # loadtxt took every nonblank line as a row of at least the header's
    # cells, and a row gives at most one lead, so this total holds only when
    # every row has exactly the header's cells and one lead.
    if commas != (len(channel_names) + 2) * len(labels):
        return None
    labels = np.frombuffer(labels, dtype=np.int64)
    run_codes, run_rows = np.array(runs, dtype=np.int64).T
    if len(runs) > len(keys):  # interleaved recordings: group rows by key
        codes = np.repeat(run_codes, run_rows)
        order = np.argsort(codes, kind="stable")
        values, labels = values[order], labels[order]
        run_rows = np.bincount(codes, minlength=len(keys))  # now one run per key
    ends = np.cumsum(run_rows).tolist()
    return channel_names, [(key, labels[start:end], values[start:end])
                           for key, start, end in zip(keys, [0] + ends, ends)]


def _unquoted_text(lines: list[str], limit: int) -> str | None:
    """``lines`` joined, or None unless csv.reader splits each of them at its
    commas: no quote, no NUL (refused before Python 3.11), no cell over ``limit``."""
    text = "".join(lines)
    if '"' in text or "\0" in text or max(map(len, lines)) > limit:
        return None
    return text


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
