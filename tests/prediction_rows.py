"""Prediction and fused tables for tests, built from one row per record."""

import numpy as np

from haraudit.confusion import FusedTable
from haraudit.predictions import COLUMNS, INT_FIELDS, TEXT_FIELDS, PredictionTable

DEFAULTS = dict(
    dataset="d", model="m1", config="c1", run=0, fold=0, window=0, label=0, probs=(0.6, 0.4)
)


def table_of(rows) -> PredictionTable:
    """One record per row; a row is a dict of wire fields, missing ones defaulted.

    The rows must agree on their dataset id, which the table holds once.
    """
    rows = [{**DEFAULTS, **row} for row in rows]
    datasets = {row["dataset"] for row in rows}
    assert len(datasets) == 1, f"rows of one table name datasets {sorted(datasets)}"
    column = {name: [row[name] for row in rows] for name in COLUMNS}
    return PredictionTable(
        datasets.pop(),
        **coded("model", column["model"]),
        **coded("config", column["config"]),
        **{name: np.array(column[name], dtype=np.int64) for name in INT_FIELDS},
        probs=np.array(column["probs"], dtype=float),
    )


def coded(name: str, ids) -> dict:
    """PredictionTable's arguments for text field ``name`` whose records hold ``ids``:
    int32 codes into the distinct ids in ascending order."""
    names, codes = np.unique(np.array(ids, dtype=str), return_inverse=True)
    return {name: codes.astype(np.int32), f"{name}_names": tuple(names.tolist())}


def text_column(table: PredictionTable, name: str) -> np.ndarray:
    """Text field ``name`` as one id per record, a ``<U`` array as wide as its longest id."""
    return np.array(getattr(table, f"{name}_names"), dtype=str)[getattr(table, name)]


def concat(*tables: PredictionTable) -> PredictionTable:
    """The tables' records in order; they must hold one dataset id."""
    datasets = {t.dataset for t in tables}
    assert len(datasets) == 1, f"tables of datasets {sorted(datasets)}"
    texts = {}
    for name in TEXT_FIELDS:
        texts.update(coded(name, [value for t in tables for value in t.values(name)]))
    return PredictionTable(datasets.pop(), **texts, **{
        name: np.concatenate([getattr(t, name) for t in tables])
        for name in INT_FIELDS + ("probs",)
    })


def assert_same_table(got: PredictionTable, want: PredictionTable) -> None:
    """The same dataset id, then column by column: equal values, text fields
    compared by their ids, and the same kind of column."""
    assert type(got.dataset) is str and got.dataset == want.dataset, (got.dataset, want.dataset)
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype.kind == b.dtype.kind, name
        if name in TEXT_FIELDS:
            assert got.values(name) == want.values(name), name
        else:
            assert np.array_equal(a, b), name


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
