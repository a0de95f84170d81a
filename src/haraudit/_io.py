"""Path-or-stream access shared by every reader and writer."""

from __future__ import annotations

import csv
import json
from contextlib import nullcontext
from pathlib import Path

import numpy as np


def open_text(target, mode: str = "r"):
    """Open a path as UTF-8 text with ``newline=""``, or pass a stream through.

    Use as a context manager: a file opened here is closed on exit, while a
    stream the caller passed in stays open.
    """
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8", newline="")
    return nullcontext(target)


def open_binary(target, mode: str = "rb"):
    """``open_text`` for bytes: open a path in binary mode, or pass a binary
    stream through."""
    if isinstance(target, (str, Path)):
        return open(target, mode)
    return nullcontext(target)


def write_json(payload, dest) -> None:
    """Write ``payload`` as indented JSON plus a trailing newline."""
    with open_text(dest, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_csv(header, rows, dest) -> None:
    """Write a header row and ``rows`` as CSV lines ending in a bare newline."""
    with open_text(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(header, src) -> list[tuple[str, ...]]:
    """The cells below ``header``, one tuple of strings per column.

    Another header, or a row of another width, raises ValueError.
    """
    with open_text(src) as fh:
        rows = list(csv.reader(fh))
    name = src if isinstance(src, (str, Path)) else "the CSV stream"
    if rows[:1] != [list(header)]:
        found = ",".join(rows[0]) if rows else "nothing"
        raise ValueError(f"{name} starts with {found}, not the header {','.join(header)}")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{name} line {line}: expected {len(header)} cells, found {len(row)}")
    return list(zip(*rows[1:])) or [()] * len(header)


def write_arrays(arrays, dest) -> None:
    """Write a column file: plain ``.npy`` arrays back to back, with no timestamp."""
    with open_binary(dest, "wb") as fh:
        for array in arrays:
            np.save(fh, array, allow_pickle=False)


def read_arrays(src, schema) -> list[np.ndarray]:
    """The arrays of a column file, one per ``(dtype, ndim)`` of ``schema``, where
    "text" is ``<U`` of any width; a file of another layout raises ValueError."""
    name = src if isinstance(src, (str, Path)) else "column file"
    arrays = []
    with open_binary(src) as fh:
        for dtype, ndim in schema:
            try:  # read_array, not np.load, which would also open a .npz archive
                array = np.lib.format.read_array(fh, allow_pickle=False)
            except Exception as exc:  # a damaged header also raises ast's and tokenize's errors
                raise ValueError(f"unreadable {name}: {exc}") from None
            due = array.dtype.str[:2] == "<U" if dtype == "text" else array.dtype == dtype
            if array.ndim != ndim or not due:
                raise ValueError(
                    f"{name} holds {array.dtype} {array.shape} where {ndim}-d {dtype} is due"
                )
            if dtype == "text" and (array.reshape(-1).view("<u4") > 0x10FFFF).any():
                raise ValueError(f"{name} holds text with a code point above U+10FFFF")
            arrays.append(array)
        if fh.read(1):
            raise ValueError(f"{name} holds bytes after its last column")
    return arrays
