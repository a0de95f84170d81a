"""Spans and counts recorded around the public functions of haraudit's modules.

The benchmark patches each public function of each traced module with a
wrapper that opens a span (name, start, end, parent) and, for some functions,
adds to a count from the call's arguments or result. The program's sources
are untouched: the wrapper replaces the module attribute and every other
``haraudit`` module attribute bound to the same function object, which covers
the names ``cli`` and ``pipeline`` import with ``from .x import y``.

A span is the tuple ``(id, name, start, end, parent)`` with times from
``time.perf_counter`` in seconds and ``parent`` the id of the enclosing span
or ``None``. Spans stay in memory until ``write_jsonl`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Layer name -> module; every public function defined in the module is traced.
LAYERS = {
    "recordings": "haraudit.recordings",
    "windowing": "haraudit.windowing",
    "splits": "haraudit.splits",
    "baseline": "haraudit.baseline",
    "pipeline": "haraudit.pipeline",
    "predictions": "haraudit.predictions",
    "ifc": "haraudit.ifc",
    "confusion": "haraudit.confusion",
    "mask": "haraudit.mask",
    "svgplot": "haraudit.svgplot",
}

#: Helpers called once per record, window or run. They stay unwrapped so spans
#: mark layer boundaries; their time counts in their caller's self time.
PER_ELEMENT = {"predictions.is_correct", "predictions.accuracy", "predictions.weighted_f1",
               "mask.categorize", "windowing.assign_window_label"}


def _recordings_parsed(counts, args, result):
    recordings, repaired = result
    counts["recordings.parse_calls"] += 1
    counts["recordings.cells_parsed"] += sum(r.num_samples * r.num_channels for r in recordings)
    counts["recordings.repaired_cells"] += repaired


def _records_read(counts, args, result):
    counts["predictions.read_calls"] += 1
    counts["predictions.records_parsed"] += len(result)


def _records_filtered(counts, args, result):
    counts["predictions.filter_in"] += len(args[0])
    counts["predictions.filter_kept"] += len(result)


#: Counts taken at the same boundaries as the spans: span name -> counter.
COUNTERS = {
    "recordings.parse_canonical": _recordings_parsed,
    "windowing.slice_corpus": lambda c, a, r: c.update({"windowing.windows": r.num_windows}),
    "baseline.train_baseline": lambda c, a, r: c.update({"baseline.folds_trained": 1}),
    "predictions.read_records": _records_read,
    "predictions.filter_to_configs": _records_filtered,
    "ifc.compute_ifc": lambda c, a, r: c.update({"ifc.flagged_windows": int(r.ifc_flags.sum())}),
    "confusion.fuse_probabilities": lambda c, a, r: c.update({"confusion.fused_windows": len(r)}),
    "mask.write_sample_mask_csv": lambda c, a, r: c.update({"mask.samples_written": len(a[0].sample_mask)}),
    "svgplot.condensed_view_svg": lambda c, a, r: c.update({"svgplot.svg_bytes": len(r.encode())}),
    "svgplot.histogram_svg": lambda c, a, r: c.update({"svgplot.svg_bytes": len(r.encode())}),
    "svgplot.chord_svg": lambda c, a, r: c.update({"svgplot.svg_bytes": len(r.encode())}),
}


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [span_id, name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self.stack.append(span_id)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A function that recurses into itself (path -> stream) is one call.
            if self.stack and self.spans[self.stack[-1]][1] == name:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        totals: dict[str, float] = defaultdict(float)
        for _, name, start, end, parent in self.spans:
            totals[name] += end - start
            if parent is not None:
                totals[self.spans[parent][1]] -= end - start
        return dict(totals)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _public_functions(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr, value


@contextmanager
def patched(tracer: Tracer):
    """Install span wrappers on every traced function for the duration."""
    import haraudit.cli  # noqa: F401  (loads every module the chain uses)

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "haraudit" or name.startswith("haraudit."))]
    undo = []
    for layer, module_name in LAYERS.items():
        for attr, fn in _public_functions(sys.modules[module_name]):
            if f"{layer}.{attr}" in PER_ELEMENT:
                continue
            wrapper = tracer.wrap(f"{layer}.{attr}", fn)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)
                        undo.append((module, name, fn))
    try:
        yield
    finally:
        for module, name, fn in undo:
            setattr(module, name, fn)
