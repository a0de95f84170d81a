"""Seeded differential fuzz of the two-path readers.

``read_records`` and ``parse_canonical`` each read a batch in bulk when they
can, and fall back to a per-line (per-cell) reference from the first batch
the bulk read refuses. Each case here plants a few faults or re-spellings at
random rows of a canonical file, rows after the first batch among them, and
requires the normal read to give exactly what the reference alone gives: the
same arrays bit for bit, or the same error.

The binary column files share one reader, ``_io.read_arrays``, so their fuzz
damages a small file (truncates it, appends bytes or flips a bit) and requires
that it loads or is refused with its reader's own error, and nothing else.

Each format runs ``FUZZ_CASES`` cases (default 150); set it higher for a
longer run, e.g. ``FUZZ_CASES=2000 python -m pytest tests/test_reader_fuzz.py``.
"""

import io
import json
import os
import random
import warnings

import numpy as np
import pytest

from haraudit import _io, predictions, recordings
from prediction_rows import coded

CASES = int(os.environ.get("FUZZ_CASES", "150"))


def read_three_ways(tmp_path, text, read, reader, **kwargs):
    """``read`` of ``text`` from a path and from a stream, each of which must
    warn of nothing, and from a stream with ``reader.take_bulk`` refusing every
    batch. Each result is ``read``'s value, or the type and message of its
    ValueError."""
    path = tmp_path / "input"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)

    def attempt(source):
        try:
            return read(source, **kwargs)
        except ValueError as exc:
            return type(exc).__name__, str(exc)

    results = []
    for source in (path, io.StringIO(text, newline="")):
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            results.append(attempt(source))
        assert not warned, [str(w.message) for w in warned]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reader, "take_bulk", lambda *args: False)
        results.append(attempt(io.StringIO(text, newline="")))
    return results


def plant(rng, rows, mutators, case):
    """The rows' lines with 1 to 3 of them rewritten by a mutator, the first
    of which the cases take in turn and the others at random, and the (row,
    mutator) pairs planted."""
    lines = [line for line, _ in rows]
    planted = []
    names = sorted(mutators)
    for n in range(rng.randint(1, 3)):
        i = rng.randrange(len(rows))
        name = names[case % len(names)] if n == 0 else rng.choice(names)
        lines[i] = mutators[name](rng, rows, i)
        planted.append((i, name))
    text = "".join(lines)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")  # no final line terminator
    return text, planted


# ------------------------------------------------------------ prediction logs

def log_rows(rng, n, k):
    """Canonical records as (line, record) pairs: two models, two configs, two runs."""
    rows = []
    for i in range(n):
        probs = np.random.default_rng(rng.getrandbits(32)).dirichlet(np.ones(k)).tolist()
        record = dict(dataset="d", model=("cnn", "lstm")[i % 2], config=("a", "b")[i // 2 % 2],
                      run=i // 4 % 2, fold=i % 5, window=i // 8, label=rng.randrange(k),
                      probs=probs)
        rows.append((json.dumps(record) + "\n", record))
    return rows


def with_probs(record, texts, sep=", "):
    return json.dumps(record).split('"probs"')[0] + f'"probs": [{sep.join(texts)}]}}\n'


# Spellings of one probability: of the same value, not JSON, JSON numbers that
# are odd in a log, integers too large for a float, and JSON values that are
# no number.
NUMBER_SPELLINGS = {
    "number same value": lambda v: [f"{v:.17g}", f"{v:.17e}", f"{v:.20e}", f"{v!r}0"],
    "number not JSON": lambda v: ["+1", ".5", "5.", "01", "-01", "1e", "1e+", "1.", "-", "--1",
                                  "1_0", "0x1", "١", "0.5.5"],
    "number odd JSON": lambda v: ["-0", "0", "1", "-0.0", "1e400", "-1e400", "1E-5", "1e-05",
                                  "1" + "0" * 30, "0.25e0", "NaN", "Infinity", "-Infinity",
                                  f"{v:.6f}"],
    "number huge integer": lambda v: ["1" + "0" * 400, "-" + "9" * 309, "2" * 310],
    "number no number": lambda v: ["true", "false", "null", '"0.5"', "[0.5]", "{}"],
}


def respell_number(spellings):
    def mutate(rng, rows, i):
        record = rows[i][1]
        texts = [repr(p) for p in record["probs"]]
        j = rng.randrange(len(texts))
        texts[j] = rng.choice(spellings(record["probs"][j]))
        return with_probs(record, texts)
    return mutate


def respace_probs(rng, rows, i):
    record = rows[i][1]
    sep = rng.choice([",", " ,", " , ", ",  ", ",\t"])
    return with_probs(record, [repr(p) for p in record["probs"]], sep)


def replace_fields(**changes):
    def mutate(rng, rows, i):
        record = rows[i][1]
        value = {name: rng.choice(choices(record)) for name, choices in changes.items()}
        return json.dumps({**record, **value}) + "\n"
    return mutate


def shuffle_keys(rng, rows, i):
    record = rows[i][1]
    return json.dumps({key: record[key] for key in rng.sample(list(record), len(record))}) + "\n"


def drop_key(rng, rows, i):
    record = dict(rows[i][1])
    del record[rng.choice(sorted(record))]
    return json.dumps(record) + "\n"


def odd_integer(rng, rows, i):
    name = rng.choice(predictions.INT_FIELDS)
    value = rng.choice([-1, 10**18 - 1, 10**18, 2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**19,
                        2.0, False])
    return json.dumps({**rows[i][1], name: value}) + "\n"


def repeat_key(rng, rows, i):
    # The previous record's (model, config, run, window) key, or the same
    # record twice.
    record = rows[max(i - 1, 0)][1]
    return json.dumps({**rows[i][1], **{k: record[k] for k in predictions.KEY_FIELDS}}) + "\n"


LOG_MUTATORS = {
    **{name: respell_number(spellings) for name, spellings in NUMBER_SPELLINGS.items()},
    "probs spacing": respace_probs,
    "shuffled keys": shuffle_keys,
    "compact separators": lambda rng, rows, i: json.dumps(rows[i][1], separators=(",", ":"))
    + "\n",
    "CRLF": lambda rng, rows, i: rows[i][0][:-1] + "\r\n",
    "lone CR": lambda rng, rows, i: rows[i][0][:-1] + "\r",
    "blank lines": lambda rng, rows, i: rng.choice(["\n", "  \n", "\r\n", "\t\n\n"]) + rows[i][0],
    "truncated": lambda rng, rows, i: rows[i][0][:rng.randrange(1, len(rows[i][0]) - 1)] + "\n",
    "missing key": drop_key,
    "repeated key": repeat_key,
    "second dataset": replace_fields(dataset=lambda r: ["e", ""]),
    "class count": replace_fields(probs=lambda r: [r["probs"] + [0.0], r["probs"][:-1], [],
                                                   [1.0]]),
    "negative probability": replace_fields(
        probs=lambda r: [[1.25, -0.25] + [0.0] * (len(r["probs"]) - 2)]),
    "quotes and escapes": replace_fields(model=lambda r: ['m"1', "m\\1", "mé", "m\x01",
                                                          "m "]),
    "bad label": replace_fields(label=lambda r: [1.0, "1", True, None, -1, len(r["probs"]),
                                                 2**63, -2**63 - 1]),
    "odd integers": odd_integer,
}


def read_log(source, num_classes=None):
    table = predictions.read_records(source, num_classes=num_classes)
    return (table.dataset, *(getattr(table, name).tolist() for name in predictions.COLUMNS[:-1]),
            table.probs.shape, table.probs.view(np.int64).tolist())


def test_a_fuzzed_log_reads_as_the_per_line_reference_reads_it(tmp_path):
    rng = random.Random(22)
    outcomes = set()
    for case in range(CASES):
        k = rng.choice([1, 2, 2, 3, 3, 5, 5])
        # 700 lines span two or three 64 KiB batches.
        rows = log_rows(rng, rng.choice([1, 5, 40, 40, 40, 700]), k)
        text, planted = plant(rng, rows, LOG_MUTATORS, case)
        num_classes = rng.choice([None, None, k, k, k + 1])
        got = read_three_ways(tmp_path, text, read_log, predictions._Log,
                              num_classes=num_classes)
        assert got[0] == got[1] == got[2], (case, planted, [g[:2] for g in got])
        outcomes.add(got[0][0] == "RecordError")
    assert outcomes == {True, False}  # both tables and errors were compared


# --------------------------------------------------------- recordings CSV

NAMES = ["ax", "ay", "az"]


def csv_rows(rng, n):
    """Canonical rows as (line, cells) pairs, in runs of a few recordings."""
    values = np.random.default_rng(rng.getrandbits(32)).normal(size=(n, len(NAMES))).tolist()
    rows = []
    for i, row in enumerate(values):
        cells = [f"s{i // 200}", f"r{i // 50 % 2}", str(rng.randrange(4)), *map(repr, row)]
        rows.append((",".join(cells) + "\n", cells))
    return rows


def replace_cell(columns, choices):
    def mutate(rng, rows, i):
        cells = list(rows[i][1])
        cells[rng.choice(columns)] = rng.choice(choices)
        return ",".join(cells) + "\n"
    return mutate


CHANNELS = range(3, 3 + len(NAMES))
CSV_MUTATORS = {
    "gap": replace_cell(CHANNELS, ["", " ", "\t"]),
    "spaces": replace_cell(range(3 + len(NAMES)), [" 1 ", " s1", "\t2.5 ", "1 "]),
    "quotes": replace_cell([0, 1], ['"s0"', '"s,1"', '"s""1"', '"s\n1"', '"r\r0"', 's"0']),
    "odd number": replace_cell(CHANNELS, ["1_0", "nan", "NaN", "inf", "-inf", "1E5", "+.5", ".5",
                                          "5.", "١.٥", "1e400", "-0.0", "0x10", "two",
                                          "1e", "--1", "1 2"]),
    "bad label": replace_cell([2], ["5.0", "-2", "", "1_0", " 2 ", str(2**63), str(2**63 - 1),
                                    "١", "+1", "0x1", "1e3"]),
    "interleaved recording": replace_cell([0], ["s0", "s1", "s9"]),
    "cell count": lambda rng, rows, i: ",".join(rows[i][1][:rng.choice([2, 3, 5, 7])]) + "\n",
    "CRLF": lambda rng, rows, i: rows[i][0][:-1] + "\r\n",
    "lone CR": lambda rng, rows, i: rows[i][0][:-1] + "\r",
    "blank lines": lambda rng, rows, i: rng.choice(["\n", "\r\n", "\n\n"]) + rows[i][0],
    "whitespace line": lambda rng, rows, i: rng.choice(["  \n", "\t\n"]) + rows[i][0],
}


def read_csv(source):
    parsed, repaired = recordings.parse_canonical(source)
    return [(r.subject_id, r.session_id, r.labels.tolist(), r.channel_names, r.channels.shape,
             r.channels.tobytes()) for r in parsed], repaired


def test_a_fuzzed_recordings_csv_reads_as_the_per_cell_reference_reads_it(tmp_path):
    rng = random.Random(22)
    outcomes = set()
    for case in range(CASES):
        # 800 rows span three or four 16 KiB batches.
        rows = csv_rows(rng, rng.choice([1, 30, 30, 800]))
        text, planted = plant(rng, rows, CSV_MUTATORS, case)
        header = "subject_id,session_id,label," + ",".join(NAMES)
        got = read_three_ways(tmp_path, header + rng.choice(["\n", "\r\n"]) + text, read_csv,
                              recordings._Rows)
        assert got[0] == got[1] == got[2], (case, planted, [g[:2] for g in got])
        outcomes.add(got[0][0] == "CanonicalFormatError")
    assert outcomes == {True, False}  # both recordings and errors were compared


# ------------------------------------------------------------- column files

def damage(rng, data):
    """``data`` truncated, with 1 to 16 bytes appended, or with one bit flipped."""
    kind = rng.choice(["truncate", "append", "flip"])
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    if kind == "append":
        return data + rng.randbytes(rng.randint(1, 16))
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]


def small_table(rng):
    """A valid table of 1 to 4 records with short, some non-ASCII, ids."""
    n, k = rng.randint(1, 4), rng.choice([2, 3])
    ids = ["m", "cnn", "模型", "σ=0.1", ""]
    probs = np.random.default_rng(rng.getrandbits(32)).dirichlet(np.ones(k), size=n)
    dataset = rng.choice(ids)
    models, configs = ([rng.choice(ids) for _ in range(n)] for _ in range(2))
    return predictions.PredictionTable(
        dataset, **coded("model", models), **coded("config", configs),
        run=np.zeros(n, dtype=np.int64), fold=np.zeros(n, dtype=np.int64), window=np.arange(n),
        label=np.array([rng.randrange(k) for _ in range(n)]), probs=probs,
    )


def small_means(rng):
    return np.random.default_rng(rng.getrandbits(32)).normal(
        size=(rng.randint(0, 5), rng.randint(1, 3)))


def write_means(means, dest):
    _io.write_arrays([means], dest)


def load_columns(source):
    table = predictions.read_columns(source)
    # Text with a code point above U+10FFFF would load, then fail here.
    return str(table.dataset), table.values("model"), table.values("config")


def load_means(source):
    return _io.read_arrays(source, [("float64", 2)])[0].tolist()


# name -> (make a value, write it, load it back, the error that refuses a file)
COLUMN_FILES = {
    "predictions": (small_table, predictions.write_columns, load_columns,
                    predictions.RecordError),
    "window_means": (small_means, write_means, load_means, ValueError),
}


@pytest.mark.parametrize("name", COLUMN_FILES)
def test_a_damaged_column_file_loads_or_is_refused(tmp_path, name):
    make, write, load, refusal = COLUMN_FILES[name]
    rng = random.Random(28)
    outcomes = set()
    for case in range(CASES):
        buf = io.BytesIO()
        write(make(rng), buf)
        data = damage(rng, buf.getvalue())
        path = tmp_path / "damaged.npy"
        path.write_bytes(data)
        # numpy reads a real file and a stream by different routes.
        source = path if case % 2 else io.BytesIO(data)
        # Warnings may pass: a damaged header can name a deprecated dtype alias.
        try:
            load(source)
            outcomes.add("loaded")
        except refusal:
            outcomes.add("refused")
        except Exception as exc:
            pytest.fail(f"case {case}: {type(exc).__module__}.{type(exc).__name__}: {exc}")
    assert outcomes == {"loaded", "refused"}
