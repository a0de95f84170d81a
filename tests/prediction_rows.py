"""Prediction tables for tests, built from one keyword row per record."""

from dataclasses import fields

import numpy as np

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
