"""Prediction and fused tables for tests, built from one row per record."""

from dataclasses import fields

import numpy as np

from haraudit.confusion import FusedTable
from haraudit.predictions import PredictionTable

DEFAULTS = dict(
    dataset="d", model="m1", config="c1", run=0, fold=0, window=0, label=0, probs=(0.6, 0.4)
)


def table_of(rows) -> PredictionTable:
    """One record per row; a row is a dict of wire fields, missing ones defaulted."""
    rows = [{**DEFAULTS, **row} for row in rows]
    column = {f.name: [row[f.name] for row in rows] for f in fields(PredictionTable)}
    return PredictionTable(
        **{name: np.array(column[name], dtype=str) for name in ("dataset", "model", "config")},
        **{name: np.array(column[name], dtype=np.int64)
           for name in ("run", "fold", "window", "label")},
        probs=np.array(column["probs"], dtype=float),
    )


def concat(*tables: PredictionTable) -> PredictionTable:
    return PredictionTable(**{
        f.name: np.concatenate([getattr(t, f.name) for t in tables]) for f in fields(PredictionTable)
    })


def assert_same_table(got: PredictionTable, want: PredictionTable) -> None:
    """Column by column: equal values, and the same kind of column."""
    for f in fields(PredictionTable):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype.kind == b.dtype.kind, f.name
        assert np.array_equal(a, b), f.name


def fused_of(windows, probs, label=1) -> FusedTable:
    """One fused row per window, ``probs`` [windows, classes]; ``confused`` is
    each row's argmax."""
    probs = np.asarray(probs, dtype=float)
    return FusedTable(
        window=np.asarray(windows, dtype=np.int64),
        label=np.full(len(windows), label, dtype=np.int64),
        confused=probs.argmax(axis=1),
        agrees=np.zeros(len(windows), dtype=bool),
        mean_probs=probs,
    )
