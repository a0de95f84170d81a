"""Path-or-stream access shared by every reader and writer."""

from __future__ import annotations

import csv
import json
from contextlib import nullcontext
from pathlib import Path


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
