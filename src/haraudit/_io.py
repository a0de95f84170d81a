"""Path-or-stream text access shared by every reader and writer."""

from __future__ import annotations

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


def write_json(payload, dest) -> None:
    """Write ``payload`` as indented JSON plus a trailing newline."""
    with open_text(dest, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
