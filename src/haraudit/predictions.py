"""Per-window class-probability logs: ingestion, validation, consolidation.

One record is one model's probability vector for one window in one training
run, taken from the fold where that window was held out. The JSONL wire
format is one object per line:

    {"dataset": "...", "model": "...", "config": "...", "run": 0,
     "fold": 0, "window": 123, "label": 4, "probs": [...]}

In memory a log is a ``PredictionTable``: one array per wire field, row i
holding record i (``model`` and ``config`` as int32 codes into sorted ids), and
the dataset id once, since a log holds one dataset (and one class count). Config
choice, run merging and metrics work on whole columns and loop in Python only
over (model, config) groups. ``write_columns`` stores a validated table as
binary columns, which ``read_columns`` loads without a parse.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable

import numpy as np

from ._io import open_text, read_arrays, write_arrays
from .ifc import CorrectnessMatrix

SIMPLEX_TOL = 1e-6
MERGE_POLICIES = ("any", "majority", "all")
TEXT_FIELDS = ("model", "config")
INT_FIELDS = ("run", "fold", "window", "label")
COLUMNS = TEXT_FIELDS + INT_FIELDS + ("probs",)  # per record; the dataset id is per log
KEY_FIELDS = ("model", "config", "run", "window")
# The scalar wire fields and their JSON types; bool is not int here, and a float is no id.
SCALAR_FIELDS = ("dataset",) + TEXT_FIELDS + INT_FIELDS
FIELD_TYPES = (str,) * (1 + len(TEXT_FIELDS)) + (int,) * len(INT_FIELDS)


class RecordError(ValueError):
    """Invalid prediction record; carries the 0-based record index."""

    def __init__(self, message: str, index: int | None = None):
        if index is not None:
            message = f"record {index}: {message}"
        super().__init__(message)
        self.index = index


@dataclass(eq=False)  # arrays have no single truth value; tables compare by identity
class PredictionTable:
    """A prediction log as columns, ``probs`` [records, classes] float64, and
    ``dataset``, the log's one id ("" for a log without records); ``model`` and
    ``config`` index the ascending ids ``model_names`` and ``config_names``."""

    dataset: str
    model: np.ndarray
    config: np.ndarray
    run: np.ndarray
    fold: np.ndarray
    window: np.ndarray
    label: np.ndarray
    probs: np.ndarray
    model_names: tuple[str, ...]
    config_names: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.label.size)

    @property
    def correct(self) -> np.ndarray:
        """Argmax correctness per record; probability ties resolve to the lowest class."""
        return self.probs.argmax(axis=1) == self.label

    def take(self, rows) -> PredictionTable:
        """The records at ``rows`` (indices or a boolean mask) as a new table."""
        return replace(self, **{n: getattr(self, n)[rows] for n in COLUMNS})

    def values(self, name: str, rows=slice(None)) -> list:
        """Column ``name`` at ``rows`` as Python values, a text field's as ids."""
        values, names = getattr(self, name)[rows].tolist(), getattr(self, f"{name}_names", None)
        return values if names is None else [names[code] for code in values]


def _group(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct row combinations of ``columns`` in sorted key order.

    Returns each row's group number and the first row of every group.
    """
    code = np.zeros(len(columns[0]), dtype=np.int64)
    spans = [int(c.max()) - int(c.min()) + 1 for c in columns] if code.size else []
    if np.prod(spans, dtype=object) < 2**63:  # one mixed-radix key, else column by column
        for column, span in zip(columns, spans):
            code = code * span + (column - column.min())
        _, first, code = np.unique(code, return_index=True, return_inverse=True)
        return code, first
    for column in columns:
        values, inverse = np.unique(column, return_inverse=True)
        _, first, code = np.unique(
            code * len(values) + inverse, return_index=True, return_inverse=True
        )
    return code, first


def _config_groups(table: PredictionTable):
    """(model, config) groups: row group numbers, first rows, and keys."""
    group, first = _group(table.model, table.config)
    return group, first, list(zip(table.values("model", first), table.values("config", first)))


def validate_records(
    table: PredictionTable, valid_window_ids: Iterable[int] | None = None
) -> None:
    """Check simplex, label-range, uniqueness, and window-id constraints.

    Raises RecordError naming the first offending record, with the first of
    those checks it fails. ``valid_window_ids`` enables the unknown-window
    check. The class count is checked while reading, since a table holds one.
    """
    sums = table.probs.sum(axis=1)
    duplicate = np.ones(len(table), dtype=bool)
    duplicate[_group(*(getattr(table, name) for name in KEY_FIELDS))[1]] = False
    unknown = np.zeros(len(table), dtype=bool)
    if valid_window_ids is not None:
        unknown = ~np.isin(table.window, np.fromiter(valid_window_ids, dtype=np.int64))
    checks = [
        ((table.probs < 0).any(axis=1), lambda i: "negative probability"),
        (~(np.abs(sums - 1.0) <= SIMPLEX_TOL),  # NaN sums fail too
         lambda i: f"probabilities sum to {sums[i]:.8f}, not 1"),
        ((table.label < 0) | (table.label >= table.probs.shape[1]),
         lambda i: f"label {table.label[i]} outside class range"),
        (duplicate, lambda i: f"duplicate ({', '.join(KEY_FIELDS)}) key "
                              f"{tuple(table.values(name, [i])[0] for name in KEY_FIELDS)}"),
        (unknown, lambda i: f"unknown window_id {table.window[i]}"),
    ]
    bad = np.logical_or.reduce([failed for failed, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise RecordError(next(message(i) for failed, message in checks if failed[i]), i)


def check_labels(table: PredictionTable, labels: np.ndarray) -> None:
    """Raise RecordError for the first record whose label is not ``labels[window]``;
    records whose window is outside ``labels`` are left to the window checks."""
    inside = np.flatnonzero((table.window >= 0) & (table.window < labels.size))
    wrong = inside[table.label[inside] != labels[table.window[inside]]]
    if wrong.size:
        i, window = int(wrong[0]), table.window[wrong[0]]
        raise RecordError(f"label {table.label[i]} differs from window {window}'s label "
                          f"{labels[window]} in the window table", i)


def read_records(
    src,
    valid_window_ids: Iterable[int] | None = None,
    num_classes: int | None = None,
) -> PredictionTable:
    """Read and validate a JSONL prediction log into a table.

    Records stream into typed buffers, which the integer and probability
    columns wrap without a copy; a text field keeps one string per distinct
    value. So memory scales with the table, not with the log's text.
    Malformed records, integers outside int64, probability vectors of the
    wrong length and a second dataset id are rejected as they are read: the
    length is ``num_classes``, or else the first record's, and the dataset id
    is the first record's. ``validate_records`` then checks the rest.

    The log is read once, front to back, in batches of lines. A batch whose
    lines all have the layout ``write_records`` writes is read in bulk, with
    one ``json.loads`` for its probabilities. From the first batch the bulk
    read refuses (another layout, or a fault), ``json.loads`` reads the rest
    one line at a time and names every error.
    """
    log = _Log(num_classes)
    with open_text(src) as fh:
        while lines := fh.readlines(1 << 16):  # batches of 64 KiB bound the bulk read's memory
            if not log.take_bulk(lines):
                log.take_lines(chain(lines, fh))
                break
    table = log.table()
    validate_records(table, valid_window_ids)
    return table


#: One record in the layout ``write_records`` writes (``json.dumps`` keys and
#: spacing), with ids free of escapes and control characters, integers of at
#: most 18 digits (so inside int64) and probabilities spelled with the characters
#: of JSON numbers: no ``true`` or ``null``, which ``np.array`` takes as numbers.
_RECORD = (
    r'^\{"dataset": "([^"\\\x00-\x1f]*)", "model": "([^"\\\x00-\x1f]*)", '
    r'"config": "([^"\\\x00-\x1f]*)", "run": (-?(?:0|[1-9][0-9]{0,17})), '
    r'"fold": (-?(?:0|[1-9][0-9]{0,17})), "window": (-?(?:0|[1-9][0-9]{0,17})), '
    r'"label": (-?(?:0|[1-9][0-9]{0,17})), "probs": \[([-+.0-9e, ]*)\]\}$'
)


class _Log:
    """A prediction log as read so far: one typed buffer per column (a text
    field's holds codes numbered by first appearance), the log's dataset id
    and class count once a record fixes them, and the count of records."""

    def __init__(self, num_classes: int | None):
        self.texts = {name: ({}, array("q")) for name in TEXT_FIELDS}  # value -> code, codes
        self.ints = {name: array("q") for name in INT_FIELDS}
        self.probs = array("d")
        self.dataset: str | None = None
        self.num_classes = num_classes
        self.count = 0

    def take_bulk(self, lines: list[str]) -> bool:
        """Take a batch of lines if each is one record in ``_RECORD``'s layout
        and the batch gives what ``take_lines`` would without an error; a
        refused batch leaves no trace."""
        records = re.findall(_RECORD, "".join(lines), re.MULTILINE)
        if len(records) != len(lines):  # each line holds at most one match
            return False
        dataset, model, config, *ints, probs = zip(*records)
        first = dataset[0] if self.dataset is None else self.dataset
        if dataset.count(first) != len(records):
            return False
        try:  # json reads each number as take_lines does, and numpy converts it as float() does
            values = np.array(json.loads(f"[[{'], ['.join(probs)}]]"), dtype=float)
        except (ValueError, OverflowError):  # not JSON, a ragged batch, or an int too large
            return False
        k = self.num_classes or values.shape[1]
        if values.shape != (len(records), k) or k < 2:
            return False
        self.dataset, self.num_classes = first, k
        for (codes, column), texts in zip(self.texts.values(), (model, config)):
            column.extend(codes.setdefault(text, len(codes)) for text in texts)
        for column, texts in zip(self.ints.values(), ints):
            parsed = np.fromstring(",".join(texts), np.int64, sep=",")
            column.frombytes(memoryview(parsed).cast("B"))
        self.probs.frombytes(memoryview(values).cast("B"))
        self.count += len(records)
        return True

    def take_lines(self, lines: Iterable[str]) -> None:
        """Take every record of ``lines`` with ``json.loads``, one line at a
        time: the reference for the bulk read, and the source of every error."""
        i = self.count
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                values = [obj[name] for name in SCALAR_FIELDS]
                row = array("d", obj["probs"])
            except (KeyError, ValueError, TypeError, OverflowError) as exc:
                raise RecordError(f"malformed record: {exc}", i) from None
            if tuple(map(type, values)) != FIELD_TYPES:
                name, value = next((n, v) for n, v, t in zip(SCALAR_FIELDS, values, FIELD_TYPES)
                                   if type(v) is not t)
                kind = "integer" if name in INT_FIELDS else "string"
                raise RecordError(f"malformed record: {name} {value!r} is not a JSON {kind}", i)
            # numpy text drops a trailing NUL, so "m\0" would become "m".
            for name, value in zip(("dataset", *TEXT_FIELDS), values):
                if "\0" in value:
                    raise RecordError(f"malformed record: {name} {value!r} holds U+0000", i)
            if bool in map(type, obj["probs"]):  # array("d") reads true as 1.0
                j = list(map(type, obj["probs"])).index(bool)
                raise RecordError(
                    f"malformed record: probs[{j}] {obj['probs'][j]!r} is not a JSON number", i
                )
            if len(row) < 2:
                raise RecordError("probs must hold at least two classes", i)
            self.num_classes = self.num_classes or len(row)
            if len(row) != self.num_classes:
                raise RecordError(f"expected {self.num_classes} classes, found {len(row)}", i)
            self.dataset = values[0] if self.dataset is None else self.dataset
            if values[0] != self.dataset:
                raise RecordError(
                    f"dataset {values[0]!r} differs from the log's dataset {self.dataset!r}", i
                )
            for name, value in zip(INT_FIELDS, values[-len(INT_FIELDS):]):
                try:
                    self.ints[name].append(value)
                except OverflowError:
                    raise RecordError(
                        f"malformed record: {name} {value} does not fit in int64", i
                    ) from None
            for (codes, column), value in zip(self.texts.values(), values[1:]):
                column.append(codes.setdefault(value, len(codes)))
            self.probs.extend(row)
            i += 1
        self.count = i

    def table(self) -> PredictionTable:
        """The records taken, as a table; the buffers back its number columns."""
        texts = {}
        for name, (codes, column) in self.texts.items():
            texts[f"{name}_names"] = names = tuple(sorted(codes))  # code point order, as numpy's
            rank = np.argsort([codes[value] for value in names]).astype(np.int32)
            texts[name] = rank[np.frombuffer(column, dtype=np.int64)]
        return PredictionTable(
            self.dataset or "", **texts,
            **{name: np.frombuffer(column, dtype=np.int64) for name, column in self.ints.items()},
            probs=np.frombuffer(self.probs).reshape(self.count, self.num_classes or 0),
        )


def write_records(table: PredictionTable, dest) -> None:
    """Write a table as JSONL, one record per line; float text is exact
    (shortest round-trip)."""
    with open_text(dest, "w") as fh:
        # A few thousand rows at a time, so no full copy of the log is held
        # as Python objects.
        for start in range(0, len(table), 4096):
            part = table.take(slice(start, start + 4096))
            for row in zip(*(part.values(name) for name in COLUMNS)):
                fh.write(json.dumps({"dataset": table.dataset, **dict(zip(COLUMNS, row))}) + "\n")


def write_columns(table: PredictionTable, dest) -> None:
    """Write a table as a column file (``_io.write_arrays``), in this order: the
    dataset id (0-d text); for each text field the names its records use, in
    ascending order, and then each record's int32 code into them; the integer
    fields as int64; ``probs`` as float64 [records, classes]."""
    columns = [np.array(table.dataset)]
    for name in TEXT_FIELDS:
        codes, first = _group(getattr(table, name))  # a take() may leave names unused
        columns += [np.array(table.values(name, first), dtype=str), codes.astype(np.int32)]
    columns += [np.asarray(getattr(table, name), dtype=np.int64) for name in INT_FIELDS]
    columns.append(np.ascontiguousarray(table.probs, dtype=np.float64))
    write_arrays(columns, dest)


def read_columns(
    src,
    valid_window_ids: Iterable[int] | None = None,
    num_classes: int | None = None,
) -> PredictionTable:
    """Load a table ``write_columns`` wrote and check it as ``read_records``
    checks a log after its parse: the class count, then ``validate_records``.

    A file that ``_io.read_arrays`` refuses, unsorted or repeated values, codes
    outside their values and columns of different lengths raise RecordError.
    """
    schema = [("text", 0), *[("text", 1), ("int32", 1)] * len(TEXT_FIELDS),
              *[("int64", 1)] * len(INT_FIELDS), ("float64", 2)]  # write_columns' arrays
    try:
        dataset, *columns, probs = read_arrays(src, schema)
    except ValueError as exc:
        raise RecordError(str(exc)) from None
    texts, names = dict(zip(TEXT_FIELDS, columns[1::2])), {}
    for name, values, codes in zip(TEXT_FIELDS, columns[0::2], columns[1::2]):
        names[f"{name}_names"] = ids = tuple(values.tolist())
        if any(a >= b for a, b in zip(ids, ids[1:])):  # code order must be id order
            where = "column file" if hasattr(src, "read") else src
            raise RecordError(f"{where} holds {name} values that are not strictly ascending")
        if ((codes < 0) | (codes >= values.size)).any():
            raise RecordError(f"{name} codes outside its {values.size} values")
    ints = dict(zip(INT_FIELDS, columns[2 * len(TEXT_FIELDS):]))
    lengths = {name: column.shape[0] for name, column in [*texts.items(), *ints.items()]}
    if set(lengths.values()) - {len(probs)}:
        raise RecordError(f"columns of different lengths: {lengths}, probs {len(probs)}")
    table = PredictionTable(dataset.item(), **texts, **ints, probs=probs, **names)
    k = probs.shape[1]
    if len(table) and k < 2:
        raise RecordError("probs must hold at least two classes", 0)
    if len(table) and num_classes is not None and k != num_classes:
        raise RecordError(f"expected {num_classes} classes, found {k}", 0)
    validate_records(table, valid_window_ids)
    return table


def best_hyperparams(table: PredictionTable) -> dict[tuple[str, str], str]:
    """Pick the config with the best mean out-of-fold accuracy per model.

    Keys are (dataset, model), with the table's one dataset id. Accuracy is
    pooled over all folds within a run and averaged across runs. Ties go to
    the lexicographically smallest config id. Every config must cover every
    fold seen for its model; missing folds raise.
    """
    group, first, keys = _config_groups(table)
    folds = np.bincount(group[_group(group, table.fold)[1]], minlength=len(first))
    model_folds = np.bincount(table.model[_group(table.model, table.fold)[1]])
    lacking = np.flatnonzero(folds < model_folds[table.model[first]])
    if lacking.size:
        g = lacking[0]
        missing = sorted(set(table.fold[table.model == table.model[first[g]]].tolist())
                         - set(table.fold[group == g].tolist()))
        raise ValueError(f"config {keys[g][1]!r} of model {keys[g][0]!r} lacks folds {missing}")
    best: dict[str, tuple[float, str]] = {}
    for (_, model_id, config), metrics in model_metrics(table).items():
        # Configs iterate in ascending id order, so a strict > keeps the
        # lexicographically smallest config on ties.
        if model_id not in best or metrics.accuracy_mean > best[model_id][0]:
            best[model_id] = metrics.accuracy_mean, config
    return {(table.dataset, model_id): config for model_id, (_, config) in best.items()}


def filter_to_configs(
    table: PredictionTable, chosen: dict[tuple[str, str], str]
) -> PredictionTable:
    """Keep only records of the chosen config of their model, keyed as
    ``best_hyperparams`` returns it."""
    group, _, keys = _config_groups(table)
    keep = np.array([chosen.get((table.dataset, m)) == c for m, c in keys], dtype=bool)
    return table.take(keep[group])


def merge_runs(table: PredictionTable, num_windows: int, policy: str) -> CorrectnessMatrix:
    """Collapse per-run correctness into a [models x windows] correctness matrix.

    ``any`` counts a window correct if any run got it right, ``majority``
    needs strictly more than half of the runs (an exact half is incorrect),
    ``all`` needs every run. Column w is window w: the log must cover exactly
    windows 0..num_windows-1. Records must already be filtered to one config
    per model, every window of a model must carry the same run count, and
    every model must cover every window.
    """
    if policy not in MERGE_POLICIES:
        raise ValueError(f"unknown merge policy {policy!r}")
    if not len(table):
        raise ValueError("no models to build a matrix from")
    window = table.window
    inside = (window >= 0) & (window < num_windows)
    if not inside.all() or not np.bincount(window, minlength=num_windows).all():
        raise ValueError(
            f"log covers {np.unique(window).size} windows but the dataset defines "
            f"{num_windows} dense window ids"
        )
    model, model_first = _group(table.model)
    names = table.values("model", model_first)

    def first_model(failed: np.ndarray) -> int | None:
        return int(np.argmax(failed)) if failed.any() else None

    m = first_model(np.bincount(model[_group(model, table.config)[1]]) > 1)
    if m is not None:
        raise ValueError(
            f"model {names[m]!r} spans configs {sorted(set(table.values('config', model == m)))}; "
            "filter to the chosen config before merging runs"
        )
    cell, cell_first = _group(model, window)
    cell_model = model[cell_first]
    runs = np.bincount(cell[_group(cell, table.run)[1]])
    m = first_model(np.bincount(cell_model[_group(cell_model, runs)[1]]) > 1)
    if m is not None:
        raise ValueError(
            f"model {names[m]!r} has differing run counts per window: "
            f"{sorted(set(runs[cell_model == m].tolist()))}"
        )
    m = first_model(np.bincount(cell_model) < num_windows)
    if m is not None:
        missing = sorted(set(range(num_windows)) - set(window[model == m].tolist()))
        raise ValueError(
            f"model {names[m]!r} lacks correctness for windows "
            f"{missing[:10]}{'...' if len(missing) > 10 else ''}"
        )
    hits = np.bincount(cell, weights=table.correct)
    if policy == "any":
        verdict = hits >= 1
    elif policy == "majority":
        verdict = hits * 2 > runs
    else:
        verdict = hits == runs
    values = np.zeros((len(names), num_windows), dtype=bool)
    values[cell_model, window[cell_first]] = verdict
    return CorrectnessMatrix(model_ids=tuple(names), values=values)


@dataclass(frozen=True)
class ModelMetrics:
    accuracy_mean: float
    accuracy_std: float
    weighted_f1_mean: float
    weighted_f1_std: float
    num_runs: int


def model_metrics(table: PredictionTable) -> dict[tuple[str, str, str], ModelMetrics]:
    """Accuracy and support-weighted F1 as mean +/- std over runs, per
    (dataset, model, config), in ascending (model, config) order.

    A class without support weighs nothing; one with support but no predicted
    positives scores an F1 of 0.
    """
    group, _, keys = _config_groups(table)
    runs, run_first = _group(group, table.run)
    k = table.probs.shape[1]
    cell = (runs * k + table.label) * k + table.probs.argmax(axis=1)
    confusion = np.bincount(cell, minlength=run_first.size * k * k).reshape(-1, k, k)
    support, predicted = confusion.sum(axis=2), confusion.sum(axis=1)
    hits = np.diagonal(confusion, axis1=1, axis2=2)
    total = support.sum(axis=1)
    f1s = np.zeros(total.size)
    # Classes add up in id order, one at a time, as a per-class sum does.
    for c in range(k):
        f1 = 2 * hits[:, c] / np.maximum(support[:, c] + predicted[:, c], 1)
        f1s += np.where(support[:, c] > 0, (support[:, c] / total) * f1, 0.0)
    bounds = np.flatnonzero(np.diff(group[run_first])) + 1
    accuracy = np.split(hits.sum(axis=1) / total, bounds)
    return {
        (table.dataset, *key): ModelMetrics(
            accuracy_mean=float(np.mean(acc)),
            accuracy_std=float(np.std(acc)),
            weighted_f1_mean=float(np.mean(f1)),
            weighted_f1_std=float(np.std(f1)),
            num_runs=acc.size,
        )
        for key, acc, f1 in zip(keys, accuracy, np.split(f1s, bounds))
    }
