import io
import json
import re
import warnings

import numpy as np
import pytest

from haraudit import _io, predictions
from haraudit.pipeline import audit_records
from haraudit.predictions import (
    COLUMNS,
    PredictionTable,
    RecordError,
    best_hyperparams,
    filter_to_configs,
    merge_runs,
    model_metrics,
    read_columns,
    read_records,
    write_columns,
    write_records,
)
from prediction_rows import assert_same_table, coded, table_of, text_column
from traced_memory import peak_bytes


def rec(
    window=0,
    label=0,
    probs=(0.6, 0.4),
    model="m1",
    config="c1",
    run=0,
    fold=0,
    dataset="d",
):
    return dict(dataset=dataset, model=model, config=config, run=run, fold=fold,
                window=window, label=label, probs=probs)


def read_back(rows, **kwargs):
    """Read rows back as a JSONL log, one line per row."""
    rows = [{**rec(), **row, "probs": list(row["probs"])} for row in rows]
    return read_records(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)), **kwargs)


def correct(row):
    return bool(table_of([row]).correct[0])


class TestCorrectness:
    def test_clear_argmax(self):
        assert correct(rec(label=1, probs=(0.1, 0.9)))

    def test_tie_resolves_to_lowest_index(self):
        assert not correct(rec(label=1, probs=(0.5, 0.5)))

    def test_three_way(self):
        assert correct(rec(label=2, probs=(0.3, 0.3, 0.4)))


class TestRoundTrip:
    def test_write_read_identity(self):
        rng = np.random.default_rng(11)
        rows = [
            rec(window=w, label=int(rng.integers(0, 4)), probs=tuple(rng.dirichlet(np.ones(4))),
                run=w % 3)
            for w in range(25)
        ]
        buf = io.StringIO()
        write_records(table_of(rows), buf)
        buf.seek(0)
        # float text is exact round-trip
        assert_same_table(read_records(buf), table_of(rows))

    def test_simplex_accepted_at_exact_sum(self):
        assert len(read_back([rec(probs=(0.5, 0.5))])) == 1

    def test_simplex_violation_rejected_with_index(self):
        with pytest.raises(RecordError, match="record 1"):
            read_back([rec(probs=(0.5, 0.5)), rec(window=1, probs=(0.6, 0.5))])

    def test_duplicate_key_rejected(self):
        # The key names four fields and gives four values; the dataset id is the log's.
        with pytest.raises(RecordError, match=re.escape(
                "record 1: duplicate (model, config, run, window) key ('m1', 'c1', 0, 0)")):
            read_back([rec(probs=(0.5, 0.5)), rec(probs=(0.4, 0.6))])

    def test_unknown_window_rejected(self):
        with pytest.raises(RecordError, match="unknown window"):
            read_back([rec(window=99)], valid_window_ids=range(10))

    def test_negative_probability_rejected(self):
        buf = io.StringIO()
        buf.write('{"dataset":"d","model":"m","config":"c","run":0,"fold":0,'
                  '"window":0,"label":0,"probs":[1.2,-0.2]}\n')
        buf.seek(0)
        with pytest.raises(RecordError, match="negative"):
            read_records(buf)


class TestValidationRules:
    def test_one_class_count_per_log(self):
        # Without num_classes the first record fixes the count for every dataset.
        rows = [rec(dataset="a", probs=(0.5, 0.5)), rec(dataset="b", probs=(0.2, 0.3, 0.5))]
        with pytest.raises(RecordError, match="record 1: expected 2 classes, found 3"):
            read_back(rows)

    def test_num_classes_overrides_the_first_record(self):
        with pytest.raises(RecordError, match="record 0: expected 3 classes, found 2"):
            read_back([rec(probs=(0.5, 0.5))], num_classes=3)

    def test_earliest_faulty_record_is_named_among_array_checks(self):
        rows = [rec(probs=(0.5, 0.5)), rec(window=1, probs=(1.2, -0.2)),
                rec(window=2), rec(window=2, probs=(0.4, 0.6))]
        with pytest.raises(RecordError, match="record 1: negative probability"):
            read_back(rows)

    def test_class_count_fault_is_named_before_earlier_array_faults(self):
        # A wrong class count stops the read, so the later record is named.
        rows = [rec(probs=(0.5, 0.5)), rec(window=1, probs=(1.2, -0.2)),
                rec(window=2, probs=(0.2, 0.3, 0.5))]
        with pytest.raises(RecordError, match="record 2: expected 2 classes, found 3"):
            read_back(rows)

    def test_first_failing_check_of_a_record_is_reported(self):
        # Record 1 repeats record 0's key and also sums to 1.1: the sum check comes first.
        with pytest.raises(RecordError, match="record 1: probabilities sum to 1.10000000"):
            read_back([rec(probs=(0.5, 0.5)), rec(probs=(0.5, 0.6))])

    def test_non_finite_probability_rejected(self):
        buf = io.StringIO('{"dataset":"d","model":"m","config":"c","run":0,"fold":0,'
                          '"window":0,"label":0,"probs":[NaN,0.5]}\n')
        with pytest.raises(RecordError, match="record 0: probabilities sum to nan"):
            read_records(buf)

    def test_malformed_record_rejected(self):
        buf = io.StringIO('{"dataset":"d","model":"m","config":"c","run":0,"fold":0,'
                          '"window":0,"label":0,"probs":"0.5"}\n')
        with pytest.raises(RecordError, match="record 0: malformed record"):
            read_records(buf)

    @pytest.mark.parametrize("field, value, kind", [
        ("run", 0.9, "integer"), ("window", 2.0, "integer"), ("label", True, "integer"),
        ("fold", "0", "integer"), ("model", 5, "string"), ("dataset", None, "string"),
    ])
    def test_fields_must_have_their_json_type(self, field, value, kind):
        # Before, int() and str() turned 0.9 into 0, true into 1 and null into "None".
        rows = [rec(), {**rec(window=1), field: value}]
        with pytest.raises(RecordError, match=f"record 1: malformed record: {field} "
                                              f".* is not a JSON {kind}"):
            read_back(rows)

    @pytest.mark.parametrize("field, value", [
        ("window", 10**20), ("run", -2**63 - 1), ("label", 2**63),
    ])
    def test_integers_must_fit_in_int64(self, field, value):
        # Before, numpy raised a bare OverflowError that named no record.
        rows = [rec(), {**rec(window=1), field: value}]
        with pytest.raises(RecordError, match=f"record 1: malformed record: {field} "
                                              f"{value} does not fit in int64"):
            read_back(rows)

    @pytest.mark.parametrize("field, value", [
        ("model", "m\0"), ("config", "c\0c"), ("dataset", "\0"),
    ])
    def test_ids_must_hold_no_nul(self, field, value):
        # numpy text drops a trailing NUL: before, models "m" and "m\0" were
        # refused as a duplicate key, and a lone model "n\0" read back as "n".
        rows = [rec(), {**rec(window=1), field: value}]
        with pytest.raises(RecordError) as raised:
            read_back(rows)
        assert str(raised.value) == f"record 1: malformed record: {field} {value!r} holds U+0000"

    @pytest.mark.parametrize("probs, message", [
        ("[true, 0]", "probs[0] True is not a JSON number"),
        ("[0, false]", "probs[1] False is not a JSON number"),
        # Before, the first escaped as a bare OverflowError naming no record.
        ("[1" + "0" * 400 + ", 0]", "int too large to convert to float"),
    ], ids=["true", "false", "400-digit-integer"])
    def test_probabilities_must_be_json_numbers_that_fit_a_float(self, probs, message):
        # Before, true and false were read as 1.0 and 0.0.
        line = json.dumps(rec(window=1))
        text = json.dumps(rec()) + "\n" + line[:line.index("[")] + probs + "}\n"
        with pytest.raises(RecordError) as raised:
            read_records(io.StringIO(text))
        assert str(raised.value) == f"record 1: malformed record: {message}"
        assert raised.value.index == 1

    def test_a_log_holds_one_dataset(self):
        rows = [rec(), rec(window=1), rec(window=2, dataset="e")]
        with pytest.raises(RecordError,
                           match="record 2: dataset 'e' differs from the log's dataset 'd'"):
            read_back(rows)


class TestTypedBuffers:
    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize("num_classes", [None, 3])
    def test_a_log_without_records_gives_an_empty_table(self, text, num_classes):
        table = read_records(io.StringIO(text), num_classes=num_classes)
        assert len(table) == 0
        assert table.probs.shape == (0, num_classes or 0)
        assert table.dataset == ""
        for name in COLUMNS:
            column = text_column(table, name) if name in ("model", "config") else getattr(
                table, name)
            assert len(column) == 0, name
            assert column.dtype.kind == {"model": "U", "config": "U",
                                         "probs": "f"}.get(name, "i"), name

    def test_text_columns_keep_the_width_of_the_longest_value(self):
        rows = [rec(model="m"), rec(window=1, model="a-long-model-id", probs=(0.5, 0.5))]
        table = read_back(rows)
        assert text_column(table, "model").tolist() == ["m", "a-long-model-id"]
        assert text_column(table, "model").dtype == np.dtype("<U15")

    def test_parse_memory_scales_with_the_table(self, tmp_path):
        # About 20k records; the parse once held 2.9-3.6 times the table in
        # Python objects.
        rng = np.random.default_rng(5)
        n, k = 20_000, 6
        models = np.array(["cnn", "lstm", "mlp", "attend"])
        table = PredictionTable(
            dataset="bench", **coded("model", models[np.arange(n) % 4]),
            **coded("config", np.full(n, "cfg-a")), run=np.zeros(n, dtype=np.int64),
            fold=np.arange(n) // 4 % 5, window=np.arange(n) // 4,
            label=rng.integers(0, k, n), probs=rng.dirichlet(np.ones(k), n),
        )
        path = tmp_path / "log.jsonl"
        write_records(table, path)
        got, peak = peak_bytes(lambda: read_records(path))
        assert_same_table(got, table)
        table_bytes = sum(getattr(got, name).nbytes for name in COLUMNS)
        assert peak <= 2.5 * table_bytes, peak / table_bytes


# The bulk read takes lines in batches of 64 KiB: at about 150 bytes a line,
# record LATE is in a later batch than record 0.
LATE = 2400
FILLER = [rec(window=w, run=w % 3, label=w % 2, probs=(p, 1 - p))
          for w, p in enumerate(np.random.default_rng(3).random(LATE + 100).tolist())]


def with_probs(probs):
    """The canonical line of a record, with ``probs`` spelled as given."""
    return lambda r: json.dumps(r).split('"probs"')[0] + f'"probs": [{probs}]}}\n'


def spy_on_line_reads(monkeypatch) -> list[int]:
    """The record count at each switch from the bulk read to ``take_lines``."""
    switches = []
    take_lines = predictions._Log.take_lines
    monkeypatch.setattr(predictions._Log, "take_lines",
                        lambda log, lines: (switches.append(log.count), take_lines(log, lines))[1])
    return switches


def read_both(tmp_path, text, **kwargs):
    """``read_records`` of ``text`` through a path and a stream, which must
    agree and warn of nothing: the table, or the error's index and message."""
    path = tmp_path / "log.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    results = []
    for source in (path, io.StringIO(text, newline="")):
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            try:
                results.append(read_records(source, **kwargs))
            except RecordError as exc:
                results.append((exc.index, str(exc)))
        assert not warned, [str(w.message) for w in warned]
    if isinstance(results[0], PredictionTable):
        assert_same_bits(results[1], results[0])
    else:
        assert results[1] == results[0]
    return results[0]


def assert_same_bits(got, want):
    assert_same_table(got, want)
    assert np.array_equal(got.probs.view(np.int64), want.probs.view(np.int64))


def json_oracle(text):
    """The table ``json.loads`` gives for each nonblank line."""
    return table_of([json.loads(line) for line in io.StringIO(text, newline="") if line.strip()])


def json_error(line):
    try:
        json.loads(line.strip())
    except ValueError as exc:
        return f"malformed record: {exc}"
    raise AssertionError(f"json reads {line!r}")


JSON_ERROR = object()
# id: (the odd record's line from its canonical record, the error, or None
# when the log reads as json.loads reads it; JSON_ERROR: json.loads's own).
SPELLINGS = {
    # Number spellings that float reads but json refuses.
    **{f"number {n}": (with_probs(f"{n}, 0"), JSON_ERROR)
       for n in ("+1", ".5", "5.", "01", "-01", "1_0", "nan", "inf", "١")},
    # json reads the integer -0 as 0, not -0.0.
    "number -0": (with_probs("-0, 1"), None),
    "number -0.0": (with_probs("-0.0, 1"), None),
    "number 1e-05": (with_probs("1e-05, 0.99999"), None),
    "number 5e-324": (with_probs("5e-324, 1"), None),
    "number 1E+16": (with_probs("1E+16, 0"),
                     "probabilities sum to 10000000000000000.00000000, not 1"),
    "number 1e400": (with_probs("1e400, 0"), "probabilities sum to inf, not 1"),
    "number 0.5 ,0.5": (with_probs("0.5 ,0.5"), None),
    # strtod reads 1 and stops: the reader must not take a log that ends so.
    "number 1e": (with_probs("0, 1e"), JSON_ERROR),
    "number 400 digits": (with_probs("1" + "0" * 400 + ", 0"),
                          "malformed record: int too large to convert to float"),
    "number true": (with_probs("true, 0"), "malformed record: probs[0] True is not a JSON number"),
    "number +1 after a bare comma": (with_probs("0,+1"), JSON_ERROR),
    "one class": (with_probs("1.0"), "probs must hold at least two classes"),
    "empty probs": (with_probs(""), "probs must hold at least two classes"),
    "control character in an id": (lambda r: json.dumps(r).replace('"m1"', '"m\x01"') + "\n",
                                   JSON_ERROR),
    "escaped id": (lambda r: json.dumps({**r, "model": "mé"}) + "\n", None),
    "non-ASCII id": (lambda r: json.dumps({**r, "model": "mé"}, ensure_ascii=False) + "\n",
                     None),
    "extra key": (lambda r: json.dumps({**r, "note": [1, "x"]}) + "\n", None),
    "reordered keys": (lambda r: json.dumps(dict(reversed(r.items()))) + "\n", None),
    "compact separators": (lambda r: json.dumps(r, separators=(",", ":")) + "\n", None),
    "CRLF": (lambda r: json.dumps(r) + "\r\n", None),
    "lone CR": (lambda r: json.dumps(r) + "\r", None),
    "blank lines": (lambda r: "\n  \n" + json.dumps(r) + "\n\n", None),
    "18-digit integers": (lambda r: json.dumps({**r, "run": -10**18 + 1, "window": 10**18 - 1})
                          + "\n", None),
    "int64 max": (lambda r: json.dumps({**r, "run": 2**63 - 1}) + "\n", None),
    "int64 min": (lambda r: json.dumps({**r, "window": -2**63}) + "\n", None),
    "int64 max + 1": (lambda r: json.dumps({**r, "fold": 2**63}) + "\n",
                      "malformed record: fold 9223372036854775808 does not fit in int64"),
    "int64 min - 1": (lambda r: json.dumps({**r, "window": -2**63 - 1}) + "\n",
                      "malformed record: window -9223372036854775809 does not fit in int64"),
    "bad record": (lambda r: json.dumps(r)[:40] + "\n", JSON_ERROR),
}
# Spellings in write_records' layout that json reads, which the bulk read takes.
TAKEN_IN_BULK = {"number -0", "number -0.0", "number 1e-05", "number 5e-324", "number 1e400",
                 "number 0.5 ,0.5", "non-ASCII id", "18-digit integers"}
# Faults that only a record after the first can have.
LATER_FAULTS = {
    "second dataset": (lambda r: json.dumps({**r, "dataset": "e"}) + "\n",
                       "dataset 'e' differs from the log's dataset 'd'"),
    "wrong class count": (lambda r: json.dumps({**r, "probs": [0.5, 0.25, 0.25]}) + "\n",
                          "expected 2 classes, found 3"),
    # Three numbers and one: together, what two records of two classes hold.
    "offsetting class counts": (
        lambda r: json.dumps({**r, "probs": [0.5, 0.25, 0.25]}) + "\n"
        + json.dumps({**r, "window": -1, "probs": [1.0]}) + "\n",
        "expected 2 classes, found 3"),
}


class TestBulkRead:
    @pytest.mark.parametrize("spelling, at", [
        pytest.param(spelling, at, id=f"{spelling}-{where}")
        for spelling in SPELLINGS | LATER_FAULTS
        for at, where in ((0, "first"), (LATE, "late-batch"), (len(FILLER) - 1, "last"))
        if at or spelling in SPELLINGS
    ])
    def test_reads_as_json_loads_does(self, tmp_path, monkeypatch, spelling, at):
        """One record spelled otherwise, first, in a later batch or last: the
        log reads as json.loads reads it, or fails with the per-line error."""
        line, error = (SPELLINGS | LATER_FAULTS)[spelling]
        odd = line(FILLER[at])
        text = "".join(json.dumps(r) + "\n" if i != at else odd for i, r in enumerate(FILLER))
        switches = spy_on_line_reads(monkeypatch)
        got = read_both(tmp_path, text)
        if error is None:
            assert_same_bits(got, json_oracle(text))
        else:
            error = json_error(odd) if error is JSON_ERROR else error
            assert got == (at, f"record {at}: {error}")
        if spelling in TAKEN_IN_BULK:
            assert switches == []
        elif at:  # the batches before the odd record's are read in bulk
            assert all(0 < count <= at for count in switches), switches

    @pytest.mark.parametrize("text", [
        "".join(json.dumps(r) + "\n" for r in FILLER).rstrip("\n"),
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in
                [{**r, "model": "mé "} for r in FILLER]),
    ], ids=["no-final-newline", "raw-non-ASCII-ids"])
    def test_a_canonical_log_is_read_in_bulk(self, tmp_path, monkeypatch, text):
        switches = spy_on_line_reads(monkeypatch)
        assert_same_bits(read_both(tmp_path, text), json_oracle(text))
        assert switches == []

    def test_a_later_batch_of_a_second_dataset_is_refused(self, tmp_path):
        # Each batch must hold the log's dataset, not only agree within itself.
        lines = [json.dumps(r) + "\n" for r in FILLER]
        first = len(io.StringIO("".join(lines)).readlines(1 << 16))
        text = "".join(lines[:first]) + "".join(line.replace('"d"', '"e"', 1)
                                                 for line in lines[first:])
        assert read_both(tmp_path, text) == (
            first, f"record {first}: dataset 'e' differs from the log's dataset 'd'")

    def test_a_log_of_one_class_is_refused(self, tmp_path):
        text = "".join(json.dumps({**r, "probs": [1.0]}) + "\n" for r in FILLER)
        assert read_both(tmp_path, text) == (0, "record 0: probs must hold at least two classes")

    def test_random_floats_read_back_bit_identical(self, tmp_path, monkeypatch):
        # Any finite double, subnormals and extremes among them, and integers
        # beyond 2**53: json.dumps writes each as json.loads reads it back.
        rng = np.random.default_rng(18)
        values = rng.integers(0, 2**64, size=(3000, 4), dtype=np.uint64).view(np.float64)
        values[:500] = rng.integers(1, 2**52, size=(500, 4), dtype=np.uint64).view(np.float64)
        values[500, :] = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0]
        values[~np.isfinite(values)] = 0.5
        rows = values.tolist()
        for row, n in zip(rows[501:800], rng.integers(-2**62, 2**62, 299).tolist()):
            row[0] = n * 2**20  # a JSON integer
        text = "".join(json.dumps(rec(window=w, probs=row)) + "\n" for w, row in enumerate(rows))
        want = np.array(rows, dtype=float)
        monkeypatch.setattr(predictions, "validate_records", lambda table, ids: None)
        switches = spy_on_line_reads(monkeypatch)
        got = read_both(tmp_path, text)
        assert np.array_equal(got.probs.view(np.int64), want.view(np.int64))
        assert switches == []


def columns_of(table, **kwargs):
    """``table`` written as binary columns and read back."""
    buf = io.BytesIO()
    write_columns(table, buf)
    buf.seek(0)
    return read_columns(buf, **kwargs)


def jsonl_of(table, **kwargs):
    """``table`` written as JSONL and read back."""
    buf = io.StringIO()
    write_records(table, buf)
    buf.seek(0)
    return read_records(buf, **kwargs)


def assert_identical(got, want):
    """``assert_same_bits``, and every column of the same dtype."""
    assert_same_bits(got, want)
    for name in COLUMNS:
        assert getattr(got, name).dtype == getattr(want, name).dtype, name


ODD_IDS = [
    [rec(dataset="ü", model="模型", config="σ=0.1"), rec(dataset="ü", window=1, model="")],
    [rec(dataset="", config=""), rec(dataset="", window=1, config="", run=1)],
]


class TestColumns:
    @pytest.mark.parametrize("chain", ["recording_chain/1", "ensemble_log/1", "flagged_heavy/1"])
    def test_the_benchmark_logs_load_as_they_read(self, golden_run, chain):
        log = golden_run(chain) / "predictions.jsonl"
        want = read_records(log)
        assert_identical(columns_of(want), want)

    @pytest.mark.parametrize("table", [
        table_of(ODD_IDS[0]),
        table_of(ODD_IDS[1]),
        # Text columns wider than their longest value, as take() leaves them.
        table_of([*ODD_IDS[0], rec(dataset="ü", window=2, model="a-long-model")]).take([0, 1]),
    ], ids=["non-ascii", "empty", "wide-text"])
    def test_odd_tables_load_as_they_read(self, table):
        assert_identical(columns_of(table), jsonl_of(table))

    def test_a_path_and_a_stream_get_the_same_bytes_every_time(self, tmp_path):
        table = table_of(ODD_IDS[0])
        writes = []
        for _ in range(2):
            buf = io.BytesIO()
            write_columns(table, buf)
            writes.append(buf.getvalue())
        write_columns(table, tmp_path / "log.npy")
        assert writes[0] == writes[1] == (tmp_path / "log.npy").read_bytes()
        assert_identical(read_columns(tmp_path / "log.npy"), table)

    def test_a_cut_table_writes_only_the_ids_its_records_use(self):
        rows = [*ODD_IDS[0], rec(dataset="ü", window=2, model="a-long-model", config="zz")]
        cut, whole = table_of(rows).take([0, 1]), table_of(rows[:2])
        assert (cut.model_names, cut.config_names) != (whole.model_names, whole.config_names)
        written = []
        for table in (cut, whole):
            buf = io.BytesIO()
            write_columns(table, buf)
            written.append(buf.getvalue())
        assert written[0] == written[1]

    @pytest.mark.parametrize("damage, message", [
        (lambda data: data + b"\0", "bytes after its last column"),
        (lambda data: data[:-1], "unreadable column file"),
        # numpy itself raises tokenize.TokenError for the unclosed header; the
        # 0x80 lands in the high byte of the dataset id's first code point.
        (lambda data: data.replace(b"}", b" ", 1), "unreadable column file: .*EOF"),
        (lambda data: data[:data.index(b"\n") + 4] + b"\x80" + data[data.index(b"\n") + 5:],
         "column file holds text with a code point above U\\+10FFFF"),
    ], ids=["trailing-byte", "truncated", "unclosed-header", "code-point-above-unicode"])
    def test_a_damaged_file_is_refused(self, damage, message):
        buf = io.BytesIO()
        write_columns(table_of(ODD_IDS[0]), buf)
        with pytest.raises(RecordError, match=message):
            read_columns(io.BytesIO(damage(buf.getvalue())))

    # The arrays in file order: dataset, model values and codes, config values
    # and codes, run, fold, window, label, probs.
    @pytest.mark.parametrize("at, edit, message", [
        (6, lambda fold: fold[:1], "columns of different lengths"),
        (2, lambda codes: codes - 1, "model codes outside its 2 values"),
        (9, lambda probs: probs.astype(np.float32),
         re.escape("column file holds float32 (2, 2) where 2-d float64 is due")),
        (0, lambda dataset: dataset.reshape(1),
         re.escape("column file holds <U1 (1,) where 0-d text is due")),
        (9, lambda probs: probs[:, :1], "^record 0: probs must hold at least two classes$"),
    ], ids=["short-column", "code-outside", "float32-probs", "1-d-dataset", "one-class"])
    def test_a_file_of_another_layout_is_refused(self, at, edit, message):
        buf = io.BytesIO()
        write_columns(table_of(ODD_IDS[0]), buf)
        buf.seek(0)
        arrays = [np.load(buf) for _ in range(10)]
        arrays[at] = edit(arrays[at])
        buf = io.BytesIO()
        for array in arrays:
            np.save(buf, array)
        buf.seek(0)
        with pytest.raises(RecordError, match=message):
            read_columns(buf)

    @pytest.mark.parametrize("values", [("m2", "m1"), ("m1", "m1")], ids=["swapped", "duplicate"])
    @pytest.mark.parametrize("to_path", [False, True], ids=["stream", "path"])
    def test_text_values_out_of_order_are_refused(self, tmp_path, values, to_path):
        # The codes would still index the values, but code order would no
        # longer be id order, which the config tie rule and every key order rest on.
        buf = io.BytesIO()
        write_columns(table_of([rec(model="m1"), rec(window=1, model="m2")]), buf)
        buf.seek(0)
        arrays = _io.read_arrays(buf, [("text", 0), ("text", 1), ("int32", 1), ("text", 1),
                                       ("int32", 1), *[("int64", 1)] * 4, ("float64", 2)])
        arrays[1] = np.array(values)
        dest = tmp_path / "predictions.npy" if to_path else io.BytesIO()
        _io.write_arrays(arrays, dest)
        src = dest if to_path else io.BytesIO(dest.getvalue())
        where = re.escape(str(dest)) if to_path else "column file"
        with pytest.raises(RecordError, match=f"^{where} holds model values that are not "
                                              "strictly ascending$"):
            read_columns(src)

    @pytest.mark.parametrize("rows, kwargs", [
        ([rec(probs=(0.5, 0.5)), rec(window=1, probs=(0.6, 0.5))], {}),
        ([rec(probs=(1.2, -0.2))], {}),
        ([rec(), rec(window=1, label=2)], {}),
        ([rec(), rec(probs=(0.5, 0.5))], {}),
        ([rec(window=99)], {"valid_window_ids": range(10)}),
        ([rec()], {"num_classes": 3}),
    ], ids=["simplex", "negative", "label", "duplicate", "unknown-window", "class-count"])
    def test_a_faulty_table_is_refused_as_read_records_refuses_it(self, rows, kwargs):
        with pytest.raises(RecordError) as want:
            jsonl_of(table_of(rows), **kwargs)
        with pytest.raises(RecordError) as got:
            columns_of(table_of(rows), **kwargs)
        assert (got.value.index, str(got.value)) == (want.value.index, str(want.value))


def correctness_records(model, config, flags_per_run, label=0):
    """One row per (run, window); flags say whether that run was correct."""
    records = []
    for run, flags in enumerate(flags_per_run):
        for window, good in enumerate(flags):
            probs = (0.9, 0.1) if good else (0.1, 0.9)
            records.append(
                rec(window=window, label=label, probs=probs,
                    model=model, config=config, run=run, fold=0)
            )
    return records


def merged(records, policy="majority"):
    """Run-merged verdicts of model m1 per window id."""
    table = table_of(records)
    matrix = merge_runs(table, int(table.window.max()) + 1, policy)
    assert matrix.model_ids == ("m1",)
    return dict(enumerate(matrix.values[0].tolist()))


class TestBestHyperparams:
    def test_higher_accuracy_wins(self):
        records = correctness_records("m1", "A", [[1, 1, 1, 0]])
        records += correctness_records("m1", "B", [[1, 1, 0, 0]])
        assert best_hyperparams(table_of(records)) == {("d", "m1"): "A"}

    def test_tie_takes_lexicographically_smallest_config(self):
        records = correctness_records("m1", "bs256_lr0.01", [[1, 0]])
        records += correctness_records("m1", "bs064_lr0.01", [[0, 1]])
        assert best_hyperparams(table_of(records))[("d", "m1")] == "bs064_lr0.01"

    def test_nine_config_grid_has_unique_argmax(self):
        # 3x3 grid over 10 windows; config k gets k+... distinct accuracies
        records = []
        accs = {}
        k = 0
        for lr in ("0.1", "0.01", "0.001"):
            for bs in ("0064", "0256", "1024"):
                config = f"bs{bs}_lr{lr}"
                correct = k + 1  # 1..9 of 10 windows correct
                accs[config] = correct / 10
                records += correctness_records(
                    "m1", config, [[1] * correct + [0] * (10 - correct)]
                )
                k += 1
        chosen = best_hyperparams(table_of(records))[("d", "m1")]
        assert chosen == max(accs, key=lambda c: (accs[c], c))
        assert accs[chosen] == 0.9

    def test_mean_over_runs_decides(self):
        # A: runs 100% and 0% -> mean 0.5; B: runs 100% and 50% -> mean 0.75
        records = correctness_records("m1", "A", [[1, 1], [0, 0]])
        records += correctness_records("m1", "B", [[1, 1], [1, 0]])
        assert best_hyperparams(table_of(records))[("d", "m1")] == "B"

    def test_missing_fold_coverage_raises(self):
        records = correctness_records("m1", "A", [[1, 1]])
        extra = rec(window=5, model="m1", config="B", fold=3)
        with pytest.raises(ValueError, match="lacks folds"):
            best_hyperparams(table_of(records + [extra]))

    def test_filtering_keeps_window_coverage(self):
        records = table_of(correctness_records("m1", "A", [[1, 0, 1]])
                           + correctness_records("m1", "B", [[0, 1, 1]]))
        chosen = best_hyperparams(records)
        kept = filter_to_configs(records, chosen)
        assert set(kept.values("config")) == {chosen[("d", "m1")]}
        assert set(kept.window.tolist()) == set(records.window.tolist())


class TestMergeRuns:
    def test_majority_three_of_four(self):
        records = correctness_records("m1", "c", [[1], [1], [1], [0]])
        assert merged(records, "majority")[0] is True

    def test_exact_half_is_incorrect(self):
        records = correctness_records("m1", "c", [[1], [1], [0], [0]])
        assert merged(records, "majority")[0] is False

    def test_single_run_equal_under_all_policies(self):
        for flag in (0, 1):
            records = correctness_records("m1", "c", [[flag]])
            for policy in ("any", "majority", "all"):
                assert merged(records, policy)[0] is bool(flag)

    def test_differing_run_counts_rejected(self):
        records = correctness_records("m1", "c", [[1, 1], [1, 1]])
        records.append(rec(window=2, model="m1", config="c", run=0))
        with pytest.raises(ValueError, match="differing run counts"):
            merge_runs(table_of(records), 3, "majority")

    @pytest.mark.parametrize("window", [-1, 3])
    def test_window_ids_outside_the_dataset_rejected(self, window):
        records = correctness_records("m1", "c", [[1, 1, 1]])
        records.append(rec(window=window, model="m1", config="c", run=0))
        with pytest.raises(ValueError, match="log covers 4 windows but the dataset defines 3 "
                                             "dense window ids"):
            merge_runs(table_of(records), 3, "majority")

    def test_multiple_configs_rejected(self):
        records = correctness_records("m1", "A", [[1]])
        records += correctness_records("m1", "B", [[1]])
        with pytest.raises(ValueError, match="filter"):
            merge_runs(table_of(records), 1, "majority")

    def test_policy_monotonicity_property(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n_runs = int(rng.integers(1, 6))
            n_windows = int(rng.integers(1, 30))
            flags = rng.integers(0, 2, size=(n_runs, n_windows))
            records = correctness_records("m1", "c", flags.tolist())
            sets = {}
            for policy in ("all", "majority", "any"):
                sets[policy] = {w for w, good in merged(records, policy).items() if good}
            assert sets["all"] <= sets["majority"] <= sets["any"]

    def test_order_independence(self):
        rng = np.random.default_rng(5)
        records = correctness_records("m1", "c", rng.integers(0, 2, (4, 20)).tolist())
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert merged(records) == merged(shuffled)

    @pytest.mark.parametrize("rows, num_windows, policy, message", [
        ([rec()], 1, "median", "unknown merge policy 'median'"),
        ([], 1, "majority", "no models to build a matrix from"),
        ([rec(window=w) for w in range(3, 20)] + [rec(model="m2", window=w) for w in range(20)],
         20, "all", "model 'm1' lacks correctness for windows [0, 1, 2]"),
        ([rec(window=w) for w in range(11, 20)] + [rec(model="m2", window=w) for w in range(20)],
         20, "any", "model 'm1' lacks correctness for windows [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]..."),
    ], ids=["unknown-policy", "empty", "three-missing", "eleven-missing"])
    def test_refusals_name_their_cause(self, rows, num_windows, policy, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            merge_runs(merge_table(rows), num_windows, policy)
        assert merge_oracle(rows, num_windows, policy) == message

    def test_random_tables_merge_as_a_dict_oracle_merges_them(self):
        rng = np.random.default_rng(30)
        refused = set()
        for _ in range(200):
            rows, num_windows, policy = random_merge_case(rng, max_windows=60)
            table, want = merge_table(rows), merge_oracle(rows, num_windows, policy)
            try:
                got = merge_runs(table, num_windows, policy)
            except ValueError as exc:
                got = str(exc)
                refused.add(next(kind for kind in MERGE_REFUSALS if kind in got))
            else:
                assert got.model_ids == tuple(sorted({row["model"] for row in rows}))
                got = got.values.tolist()
            assert got == want, (rows, num_windows, policy)
        assert refused >= set(MERGE_REFUSALS) - {"no models"}, refused

    def test_a_repeated_record_is_a_differing_run_count(self):
        """A validated table has no repeated key; in one nobody validated, a
        repeat counts as a run, whether or not the cell's other runs were right."""
        rows = correctness_records("m1", "c", [[1, 1, 1], [1, 1, 1]])
        rows.append(rows[1])
        message = "model 'm1' has differing run counts per window: [2, 3]"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            merge_runs(table_of(rows), 3, "all")
        assert merge_oracle(rows, 3, "all") == message

    def test_one_grouping_sort(self, monkeypatch):
        rows = correctness_records("m1", "c", [[1, 0, 1], [0, 0, 1]])
        rows += correctness_records("m2", "c", [[1, 1, 0]])
        calls = []
        group = predictions._group
        monkeypatch.setattr(predictions, "_group", lambda *a: (calls.append(1), group(*a))[1])
        matrix = merge_runs(table_of(rows), 3, "majority")
        assert matrix.values.tolist() == [[False, False, True], [True, True, False]]
        assert len(calls) == 1  # numbering the models; the counts are taken on the grid


MERGE_REFUSALS = ("no models", "log covers", "spans configs", "differing run counts",
                  "lacks correctness")


def merge_table(rows):
    """``table_of(rows)``, and for no rows an empty table."""
    return table_of(rows or [rec()]).take(slice(len(rows)))


def merge_oracle(rows, num_windows, policy):
    """merge_runs from Python dicts over the rows: the verdicts per model in id
    order, or the message of the first refusal, in merge_runs' check order."""
    if policy not in ("any", "majority", "all"):
        return f"unknown merge policy {policy!r}"
    if not rows:
        return "no models to build a matrix from"
    windows = {row["window"] for row in rows}
    if windows != set(range(num_windows)):
        return (f"log covers {len(windows)} windows but the dataset defines "
                f"{num_windows} dense window ids")
    configs, cells = {}, {}  # model -> its configs; (model, window) -> each record's correctness
    for row in rows:
        configs.setdefault(row["model"], set()).add(row["config"])
        probs = row["probs"]
        top = max(range(len(probs)), key=probs.__getitem__)  # the first of tied maxima
        cells.setdefault((row["model"], row["window"]), []).append(top == row["label"])
    models = sorted(configs)
    for m in models:
        if len(configs[m]) > 1:
            return (f"model {m!r} spans configs {sorted(configs[m])}; "
                    "filter to the chosen config before merging runs")
    for m in models:
        runs = sorted({len(hits) for (model, _), hits in cells.items() if model == m})
        if len(runs) > 1:
            return f"model {m!r} has differing run counts per window: {runs}"
    for m in models:
        missing = [w for w in range(num_windows) if (m, w) not in cells]
        if missing:
            return (f"model {m!r} lacks correctness for windows "
                    f"{missing[:10]}{'...' if len(missing) > 10 else ''}")
    rule = {"any": lambda hits, runs: hits >= 1, "majority": lambda hits, runs: 2 * hits > runs,
            "all": lambda hits, runs: hits == runs}[policy]
    return [[rule(sum(cells[m, w]), len(cells[m, w])) for w in range(num_windows)]
            for m in models]


def random_merge_case(rng, max_windows):
    """Rows of 1-4 models, each with 1-3 runs over all of 1..max_windows
    windows, then, each with some chance, spoiled: records dropped; one
    model's records on some windows dropped; a second config or an extra run
    on some windows of that model; a window past the end. Every (model,
    config, run, window) key stays unique."""
    num_windows, k = int(rng.integers(1, max_windows + 1)), int(rng.integers(2, 4))
    models = int(rng.integers(1, 5))
    rows = []
    for m in range(models):
        for run in range(int(rng.integers(1, 4))):
            for w in range(num_windows):
                weights = rng.integers(1, 4, k)  # small integers, so argmax ties happen
                rows.append(rec(model=f"m{m}", config="c1", run=run, window=w,
                                label=int(rng.integers(k)), probs=tuple(weights / weights.sum())))
    model = f"m{rng.integers(models)}"
    if rng.random() < 0.3:
        kept = rng.random(len(rows)) >= rng.random() * 0.6
        rows = [row for row, keep in zip(rows, kept) if keep]
    if rng.random() < 0.15:
        lost = set(rng.choice(num_windows, int(rng.integers(1, num_windows + 1))).tolist())
        rows = [row for row in rows if row["model"] != model or row["window"] not in lost]
    if rng.random() < 0.15:
        rows += [{**row, "config": "c2"} for row in rows
                 if row["model"] == model and rng.random() < 0.5]
    if rng.random() < 0.15:
        rows += [{**row, "run": 9} for row in rows
                 if row["model"] == model and row["run"] == 0 and rng.random() < 0.5]
    if rng.random() < 0.1:
        rows.append(rec(window=int(rng.choice([-1, num_windows])), probs=(1 / k,) * k))
    return rows, num_windows, str(rng.choice(["any", "majority", "all"]))


def run_metrics(y_true, y_pred, num_classes):
    """model_metrics of one run whose records predict ``y_pred`` for labels ``y_true``."""
    one_hot = np.eye(num_classes)
    table = table_of(dict(window=w, label=t, probs=one_hot[p])
                     for w, (t, p) in enumerate(zip(y_true, y_pred)))
    return model_metrics(table)[("d", "m1", "c1")]


def accuracy(y_true, y_pred):
    return run_metrics(y_true, y_pred, max(max(y_true), max(y_pred)) + 1).accuracy_mean


def weighted_f1(y_true, y_pred, num_classes):
    return run_metrics(y_true, y_pred, num_classes).weighted_f1_mean


def weighted_f1_oracle(y_true, y_pred, num_classes):
    """Weighted F1 from a confusion matrix: per-class precision and recall,
    F1 = 2PR/(P+R) (0 where P+R is 0), averaged with support as the weight."""
    cm = np.zeros((num_classes, num_classes))
    np.add.at(cm, (np.asarray(y_true), np.asarray(y_pred)), 1)
    tp, predicted, support = np.diag(cm), cm.sum(axis=0), cm.sum(axis=1)
    zeros = np.zeros(num_classes)
    precision = np.divide(tp, predicted, out=zeros.copy(), where=predicted > 0)
    recall = np.divide(tp, support, out=zeros.copy(), where=support > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=zeros.copy(), where=pr > 0)
    return float((f1 * support).sum() / support.sum())


# The y_true and y_pred rows test_weighted_f1_matches_sklearn draws.
SEEDED = np.random.default_rng(9).integers(0, 4, size=(2, 200))


class TestMetrics:
    def test_accuracy(self):
        assert accuracy([0, 1, 2, 2], [0, 1, 1, 2]) == 0.75

    @pytest.mark.parametrize(
        "y_true, y_pred, num_classes, expected",
        [
            (SEEDED[0], SEEDED[1], 4, None),
            # Class 1 has support but no predictions: its F1 is 0.
            ([0, 0, 1, 1], [0, 0, 0, 0], 2, 0.5 * 2 / 3),
            # Class 2 is predicted but has no support: its weight is 0.
            ([0, 0, 1, 1], [0, 2, 1, 1], 3, 0.5 * 2 / 3 + 0.5),
            ([0, 1, 2, 2], [0, 1, 2, 2], 3, 1.0),
        ],
        ids=["seeded", "unpredicted_class", "unsupported_class", "all_correct"],
    )
    def test_weighted_f1_matches_confusion_matrix_oracle(
        self, y_true, y_pred, num_classes, expected
    ):
        ours = weighted_f1(y_true, y_pred, num_classes)
        assert abs(ours - weighted_f1_oracle(y_true, y_pred, num_classes)) < 1e-12
        if expected is not None:
            assert abs(ours - expected) < 1e-12

    def test_weighted_f1_matches_sklearn(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(9)
        y_true = rng.integers(0, 4, size=200)
        y_pred = rng.integers(0, 4, size=200)
        ours = weighted_f1(y_true, y_pred, 4)
        ref = sklearn_metrics.f1_score(y_true, y_pred, average="weighted")
        assert abs(ours - ref) < 1e-12

    def test_model_metrics_mean_and_std_over_runs(self):
        records = correctness_records("m1", "c", [[1, 1, 1, 1], [1, 1, 0, 0]])
        metrics = model_metrics(table_of(records))[("d", "m1", "c")]
        assert metrics.accuracy_mean == 0.75
        assert metrics.accuracy_std == 0.25
        assert metrics.num_runs == 2


# Ids whose first appearance in the log differs from their code-point order,
# which is Zeta < alpha < Ärger < é and Ab < zz < ü. Model alpha scores the same
# under "zz", which comes first, and "Ab", and misses every window under "ü":
# the tie goes to "Ab".
ORDER_MODELS, ORDER_CONFIGS = ("alpha", "é", "Zeta", "Ärger"), ("zz", "Ab", "ü")
ORDER_WINDOWS, ORDER_RUNS, ORDER_CLASSES = 12, 2, 3


def order_rows():
    """Every model under every config, for each run and window, as records."""
    rng = np.random.default_rng(29)
    probs = {(m, c, r): rng.dirichlet(np.ones(ORDER_CLASSES), ORDER_WINDOWS)
             for m in ORDER_MODELS for c in ORDER_CONFIGS for r in range(ORDER_RUNS)}
    wrong = np.full((ORDER_WINDOWS, ORDER_CLASSES), 0.1)
    wrong[np.arange(ORDER_WINDOWS), (np.arange(ORDER_WINDOWS) + 1) % ORDER_CLASSES] = 0.8
    for r in range(ORDER_RUNS):
        probs["alpha", "Ab", r], probs["alpha", "ü", r] = probs["alpha", "zz", r], wrong
    return [rec(window=w, label=w % ORDER_CLASSES, probs=probs[m, c, r][w].tolist(), model=m,
                config=c, run=r, fold=w % 3)
            for r in range(ORDER_RUNS) for w in range(ORDER_WINDOWS)
            for m in ORDER_MODELS for c in ORDER_CONFIGS]


def text_oracle(rows):
    """The config choice, key orders and fused means of the majority audit,
    computed on the text columns, grouped with np.unique."""
    model, config = (np.array([r[name] for r in rows]) for name in ("model", "config"))
    run, window, label = (np.array([r[name] for r in rows]) for name in ("run", "window", "label"))
    probs = np.array([r["probs"] for r in rows])
    correct = probs.argmax(axis=1) == label
    models, chosen, keep = np.unique(model), {}, np.zeros(len(rows), dtype=bool)
    for m in models.tolist():
        configs = np.unique(config[model == m])
        accuracy = [np.mean([correct[(model == m) & (config == c) & (run == r)].mean()
                             for r in np.unique(run).tolist()]) for c in configs.tolist()]
        chosen[m] = configs[int(np.argmax(accuracy))].item()  # the first of ties
        keep |= (model == m) & (config == chosen[m])
    right = np.zeros(ORDER_WINDOWS, dtype=int)
    for m in models.tolist():
        hits = np.bincount(window[keep & (model == m)], weights=correct[keep & (model == m)])
        right += hits * 2 > ORDER_RUNS
    flagged = np.flatnonzero(right == 0)
    kept = np.flatnonzero(keep)
    order = kept[np.lexsort((run[kept], config[kept], model[kept], window[kept]))]
    means = np.array([np.mean(probs[order[window[order] == w]], axis=0) for w in flagged])
    return dict(models=tuple(models.tolist()), configs=tuple(np.unique(config).tolist()),
                chosen={("d", m): c for m, c in chosen.items()}, flagged=flagged,
                pairs=[("d", *pair) for pair in sorted(set(zip(model.tolist(), config.tolist())))],
                means=means)


class TestCodeOrder:
    def read_three_ways(self, tmp_path, monkeypatch):
        """The order log read in bulk, line by line and from its column file."""
        rows = order_rows()
        switches = spy_on_line_reads(monkeypatch)
        bulk = read_both(tmp_path, "".join(json.dumps(r, ensure_ascii=False) + "\n"
                                           for r in rows))
        assert switches == []
        # json.dumps escapes é as \\u00e9, a spelling the bulk read leaves to json.loads.
        lines = read_both(tmp_path, "".join(json.dumps(r) + "\n" for r in rows))
        assert switches == [0, 0]
        return rows, {"bulk": bulk, "lines": lines, "columns": columns_of(bulk)}

    def test_each_read_gives_the_ids_in_code_point_order(self, tmp_path, monkeypatch):
        rows, tables = self.read_three_ways(tmp_path, monkeypatch)
        want = text_oracle(rows)
        assert want["models"] == ("Zeta", "alpha", "Ärger", "é")
        assert want["configs"] == ("Ab", "zz", "ü")
        for way, table in tables.items():
            assert (table.model_names, table.config_names) == (want["models"], want["configs"])
            assert np.array_equal(table.model, tables["bulk"].model), way
            assert np.array_equal(table.config, tables["bulk"].config), way
            assert table.values("model") == [r["model"] for r in rows], way
            assert table.values("config") == [r["config"] for r in rows], way

    def test_each_read_audits_as_the_text_oracle(self, tmp_path, monkeypatch):
        rows, tables = self.read_three_ways(tmp_path, monkeypatch)
        want = text_oracle(rows)
        assert want["chosen"][("d", "alpha")] == "Ab"
        assert want["flagged"].size >= 2
        bounds = np.array([(10 * w, 10 * w + 10) for w in range(ORDER_WINDOWS)])
        labels = np.arange(ORDER_WINDOWS) % ORDER_CLASSES
        for way, table in tables.items():
            assert list(model_metrics(table)) == want["pairs"], way
            result = audit_records(table, bounds, labels, 10 * ORDER_WINDOWS, ORDER_CLASSES)
            assert list(result.chosen_configs.items()) == list(want["chosen"].items()), way
            assert list(result.metrics) == [("d", m, c) for (_, m), c in want["chosen"].items()]
            assert tuple(result.ifc.single_contribution) == want["models"], way
            assert np.array_equal(result.fused.window, want["flagged"]), way
            assert np.array_equal(result.fused.mean_probs.view(np.int64),
                                  want["means"].view(np.int64)), way


def dict_groups(*columns):
    """_group's result from Python dicts: group numbers in sorted key order,
    and the first row of each group."""
    keys = list(zip(*(column.tolist() for column in columns)))
    number = {key: i for i, key in enumerate(sorted(set(keys)))}
    first = {}
    for row, key in enumerate(keys):
        first.setdefault(number[key], row)
    return [number[key] for key in keys], [first[g] for g in range(len(number))]


class TestGroup:
    @pytest.mark.parametrize("runs, windows, sorts", [
        ([0, 5, 3], [7, 2, 9], 1),
        # Spans of 2 models, 2**31 runs and 2**31 - 1 windows: a key just below 2**63.
        ([-2**30, 2**30 - 1, 0], [5, 2**31 + 3, 5], 1),
        # One more window id: the product reaches 2**63, so each column is numbered.
        ([-2**30, 2**30 - 1, 0], [4, 2**31 + 3, 5], 8),
        ([-2**62, 2**62, 0], [2**62, -2**62, 2**62], 8),
        ([-2**63, 2**63 - 1, 0], [0, 1, 2], 8),
    ], ids=["small", "just-fits", "just-overflows", "near-2**62", "int64-extremes"])
    def test_groups_match_a_dict_of_the_keys(self, monkeypatch, runs, windows, sorts):
        rng = np.random.default_rng(31)
        picks = rng.integers(0, 3, 200)
        columns = (rng.integers(0, 2, 200).astype(np.int32), np.zeros(200, dtype=np.int32),
                   np.array(runs, dtype=np.int64)[picks],
                   np.array(windows, dtype=np.int64)[rng.permutation(picks)])
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: (calls.append(1), unique(*a, **k))[1])
        code, first = predictions._group(*columns)
        assert (code.tolist(), first.tolist()) == dict_groups(*columns)
        assert len(calls) == sorts  # one sort, or two per column

    def test_an_empty_table_has_no_groups(self):
        code, first = predictions._group(np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int64))
        assert code.size == first.size == 0

    def test_a_duplicate_key_past_int64_names_its_text_ids(self):
        rows = [rec(model="é", config="Ab", run=-2**62, window=2**62),
                rec(model="é", config="Ab", run=2**62, window=-2**62),
                rec(model="é", config="Ab", run=2**62, window=-2**62)]
        with pytest.raises(RecordError, match=re.escape(
                "record 2: duplicate (model, config, run, window) key "
                f"('é', 'Ab', {2**62}, {-2**62})")):
            read_back(rows)
