import csv
import io
import re
import warnings

import numpy as np
import pytest

import haraudit.recordings as recordings_module
from haraudit.recordings import (
    CanonicalFormatError,
    SensorRecording,
    corpus_num_classes,
    parse_canonical,
    write_canonical,
)
from traced_memory import peak_bytes


def make_csv(text: str) -> io.StringIO:
    return io.StringIO(text.strip() + "\n")


def test_parse_three_rows_two_channels():
    recs, repaired = parse_canonical(
        make_csv(
            """
subject_id,session_id,label,ax,ay
s1,r1,0,1.0,2.0
s1,r1,0,1.5,2.5
s1,r1,1,2.0,3.0
"""
        )
    )
    assert repaired == 0
    assert len(recs) == 1
    rec = recs[0]
    assert rec.num_samples == 3
    assert rec.num_channels == 2
    assert rec.channel_names == ["ax", "ay"]
    assert rec.labels.tolist() == [0, 0, 1]
    assert rec.channels[1].tolist() == [1.5, 2.5]


def test_forward_fill_repairs_interior_gap():
    recs, repaired = parse_canonical(
        make_csv(
            """
subject_id,session_id,label,ax,ay
s1,r1,0,1.0,5.0
s1,r1,0,1.0,
s1,r1,0,1.0,7.0
"""
        )
    )
    assert repaired == 1
    assert recs[0].channels[1, 1] == 5.0  # forward fill wins over the 7.0 below


def test_backward_fill_repairs_leading_gap():
    recs, repaired = parse_canonical(
        make_csv(
            """
subject_id,session_id,label,ax
s1,r1,0,
s1,r1,0,2.0
"""
        )
    )
    assert repaired == 1
    assert recs[0].channels[0, 0] == 2.0


def test_empty_file_rejected():
    with pytest.raises(CanonicalFormatError, match="empty"):
        parse_canonical(io.StringIO(""))


def test_malformed_header_reports_line_one():
    with pytest.raises(CanonicalFormatError, match="line 1"):
        parse_canonical(make_csv("foo,bar,baz,qux\ns1,r1,0,1.0"))


def test_header_without_channels_rejected():
    with pytest.raises(CanonicalFormatError):
        parse_canonical(make_csv("subject_id,session_id,label\ns1,r1,0"))


def test_non_numeric_cell_reports_line():
    with pytest.raises(CanonicalFormatError, match="line 3"):
        parse_canonical(
            make_csv(
                """
subject_id,session_id,label,ax
s1,r1,0,1.0
s1,r1,0,oops
"""
            )
        )


def test_non_integer_label_rejected():
    with pytest.raises(CanonicalFormatError, match="label"):
        parse_canonical(make_csv("subject_id,session_id,label,ax\ns1,r1,walk,1.0"))


def test_label_outside_int64_reports_line():
    # Before, numpy raised a bare OverflowError that named no line.
    with pytest.raises(CanonicalFormatError,
                       match="line 3: label 99999999999999999999999 does not fit in int64"):
        parse_canonical(make_csv(
            "subject_id,session_id,label,ax\ns1,r1,0,1.0\ns1,r1,99999999999999999999999,2.0"
        ))


def test_rows_with_empty_cells_keep_every_other_value_in_place():
    # Rows of two recordings interleave; each recording's buffer keeps its own
    # rows, and an empty cell is filled from its own channel.
    recs, repaired = parse_canonical(make_csv(
        """
subject_id,session_id,label,ax,ay,az
s1,r1,0,1.0,2.0,3.0
s2,r1,1,9.0,8.0,7.0
s1,r1,0,4.0,,6.0
s2,r1,1,6.0,5.0,
s1,r1,1, 7.0 ,8.0,9.0
"""
    ))
    assert repaired == 2
    assert recs[0].channels.tolist() == [[1.0, 2.0, 3.0], [4.0, 2.0, 6.0], [7.0, 8.0, 9.0]]
    assert recs[0].labels.tolist() == [0, 0, 1]
    assert recs[1].channels.tolist() == [[9.0, 8.0, 7.0], [6.0, 5.0, 7.0]]
    assert recs[1].labels.tolist() == [1, 1]


def parse_both(tmp_path, text):
    """``parse_canonical`` of ``text`` through a path, a stream and a file already
    advanced with ``next()``, which must agree and warn of nothing: the recordings
    as ``recording`` tuples and the repaired count, or the error message."""
    path, advanced = tmp_path / "r.csv", tmp_path / "advanced.csv"
    for dest, preamble in ((path, ""), (advanced, "# made by hand\n")):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.write(preamble + text)
    results = []
    with open(advanced, encoding="utf-8", newline="") as skipped:
        next(skipped)  # the caller skipped a preamble line; skipped.tell() now raises
        for source in (path, io.StringIO(text, newline=""), skipped):
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                try:
                    recs, repaired = parse_canonical(source)
                    results.append(([(r.subject_id, r.session_id, r.labels.tolist(),
                                      r.channel_names, r.channels.shape, r.channels.tobytes())
                                     for r in recs], repaired))
                except CanonicalFormatError as exc:
                    results.append(str(exc))
            assert not warned, [str(w.message) for w in warned]
    assert results[0] == results[1] == results[2]
    return results[0]


def recording(subject, session, labels, rows, names=("ax", "ay")):
    rows = np.array(rows, dtype=float)
    return (subject, session, labels, list(names), rows.shape, rows.tobytes())


HEAD = "subject_id,session_id,label,ax,ay\n"
# Over 16 KiB of rows the bulk read takes, with CRLF and blank rows among them:
# what follows them is read cell by cell, continuing csv.reader's row count.
CLEAN = HEAD + "".join(
    f"s1,r1,{i % 3},{i}.25,-{i}.5" + ("\r\n" if i % 7 else "\n") + ("\n" if i % 100 == 0 else "")
    + ("\r\n" if i % 150 == 0 else "")
    for i in range(2_000)
)


def read_by_reference(text):
    """``text`` read with csv.reader, ``int`` and ``float``, each gap filled from
    the row above it in its recording: ``recording`` tuples and the repaired count."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    groups, repaired = {}, 0
    for row in filter(None, rows[1:]):
        labels, values = groups.setdefault((row[0], row[1]), ([], []))
        labels.append(int(row[2]))
        values.append([float(cell) if cell.strip() else values[-1][c]
                       for c, cell in enumerate(row[3:])])
        repaired += sum(not cell.strip() for cell in row[3:])
    return [recording(*key, labels, values, rows[0][3:])
            for key, (labels, values) in groups.items()], repaired


def reference_line(text, cell):
    """csv.reader's number for the row of ``text`` that holds ``cell``."""
    return next(n for n, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1)
                if cell in row)


LATE_READS = {
    "gap-after-bulk": CLEAN + "s1,r1,0,,2\ns2,r1,1,3,4\n",
    "quoted-newline-after-bulk": CLEAN + '"s\n2",r1,0,1,2\ns1,r1,1,3,4\n',
}
# name: (text, the cell csv.reader finds on the refused row, the message after "line N: ")
LATE_REFUSED = {
    "bad-cell-after-bulk": (CLEAN + "s1,r1,0,1,two\n", "two", "channel 'ay' cell 'two' is not numeric"),
    "negative-label-after-bulk": (CLEAN + "s1,r1,-2,1,2\n", "-2", "label -2 is negative"),
    "bad-cell-after-quoted-newline": (CLEAN + '"s\n2",r1,0,1,2\ns1,r1,0,1,two\n', "two",
                                      "channel 'ay' cell 'two' is not numeric"),
}
# Inputs where a bulk float/int parse and Python's float()/int() or csv.reader could
# part ways; each must read as csv.reader plus float()/int() read it.
READS = {
    "quoted-comma": (HEAD + '"s,1",r1,0,1.0,2.0\n', [recording("s,1", "r1", [0], [[1, 2]])], 0),
    "doubled-quote": (HEAD + '"s""1",r1,0,1.0,2.0\n', [recording('s"1', "r1", [0], [[1, 2]])], 0),
    "quoted-newline": (HEAD + '"s\n1",r1,0,1.0,2.0\ns2,r1,1,3.0,4.0\n',
                       [recording("s\n1", "r1", [0], [[1, 2]]), recording("s2", "r1", [1], [[3, 4]])],
                       0),
    "spaces": (HEAD + " s1 , r1 , 1 , 2.5 ,\t-3 \n s1 , r1 ,0,1,2\n",
               [recording(" s1 ", " r1 ", [1, 0], [[2.5, -3], [1, 2]])], 0),
    "crlf-and-blank-lines": ("subject_id,session_id,label,ax,ay\r\ns1,r1,0,1.0,2.0\r\n\r\n"
                             "s1,r1,1,3.0,4.0\r\n\n",
                             [recording("s1", "r1", [0, 1], [[1, 2], [3, 4]])], 0),
    "nan-inf": (HEAD + "s1,r1,0,1.5,-inf\ns1,r1,0,nan,inf\ns1,r1,0,-0.0,1e308\n",
                [recording("s1", "r1", [0, 0, 0], [[1.5, -np.inf], [1.5, np.inf], [-0.0, 1e308]])],
                1),
    "underscore-and-unicode-digits": (HEAD + "s1,r1,1_0,1_0,\u0661.\u0665\ns1,r1,\u0662,2,3\n",
                                      [recording("s1", "r1", [10, 2], [[10, 1.5], [2, 3]])], 0),
    "quoted-header": ('subject_id,session_id,label,"a""x",ay\ns1,r1,0,1,2\n',
                      [recording("s1", "r1", [0], [[1, 2]], names=('a"x', "ay"))], 0),
    "cr-line-endings": ("subject_id,session_id,label,ax,ay\rs1,r1,0,1,2\rs1,r1,0,3,4\r",
                        [recording("s1", "r1", [0, 0], [[1, 2], [3, 4]])], 0),
    "interleaved": (HEAD + "s1,r1,0,1,2\ns2,r1,1,3,4\ns1,r1,1,5,6\ns1,r2,0,7,8\ns2,r1,0,9,10\n",
                    [recording("s1", "r1", [0, 1], [[1, 2], [5, 6]]),
                     recording("s2", "r1", [1, 0], [[3, 4], [9, 10]]),
                     recording("s1", "r2", [0], [[7, 8]])], 0),
    **{name: (text, *read_by_reference(text)) for name, text in LATE_READS.items()},
}


@pytest.mark.parametrize("text, recordings, repaired", READS.values(), ids=READS.keys())
def test_cells_read_as_python_reads_them(tmp_path, text, recordings, repaired):
    assert parse_both(tmp_path, text) == (recordings, repaired)


REFUSED = {
    "float-label": (HEAD + "s1,r1,5.0,1,2\n", "line 2: label '5.0' is not an integer"),
    "header-only": (HEAD, "file contains a header but no samples"),
    "blank-lines-only": (HEAD + "\n\r\n", "file contains a header but no samples"),
    "whitespace-line": (HEAD + "s1,r1,0,1,2\n  \n", "line 3: expected 5 cells, found 1"),
    "extra-cell": (HEAD + "s1,r1,0,1,2\ns1,r1,0,1,2,3\n", "line 3: expected 5 cells, found 6"),
    "missing-cell": (HEAD + "s1,r1,0,1,2\ns1,r1,0,1\n", "line 3: expected 5 cells, found 4"),
    "empty-label": (HEAD + "s1,r1,,1,2\n", "line 2: label '' is not an integer"),
    "hex-cell": (HEAD + "s1,r1,0,0x10,2\n", "line 2: channel 'ax' cell '0x10' is not numeric"),
    "late-bad-cell": (HEAD + "s1,r1,0,1,2\n" * 3 + "s1,r1,0,1,two\n",
                      "line 5: channel 'ay' cell 'two' is not numeric"),
    "late-negative-label": (HEAD + "s1,r1,0,1,2\n" * 3 + "s1,r1,-2,1,2\n",
                            "line 5: label -2 is negative"),
    "all-nan-channel": (HEAD + "s1,r1,0,nan,2\ns2,r1,0,1,2\n",
                        "recording ('s1', 'r1'): channel(s) ['ax'] hold no numeric value to repair from"),
    **{name: (text, f"line {reference_line(text, cell)}: {message}")
       for name, (text, cell, message) in LATE_REFUSED.items()},
}


@pytest.mark.parametrize("text, message", REFUSED.values(), ids=REFUSED.keys())
def test_refusals_name_what_python_refuses(tmp_path, text, message):
    assert parse_both(tmp_path, text) == message


@pytest.mark.parametrize("subject", ["s\0", "s" * (csv.field_size_limit() + 1)],
                         ids=["nul", "over-the-field-limit"])
def test_ids_csv_reader_may_refuse_read_as_it_reads_them(tmp_path, subject):
    # csv.reader refuses a NUL before Python 3.11, and a field over its size limit.
    text = HEAD + f"{subject},r1,0,1,2\n"
    try:
        list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        path = tmp_path / "r.csv"
        path.write_text(text, encoding="utf-8")
        for source in (path, io.StringIO(text)):
            with pytest.raises(csv.Error, match=re.escape(str(exc))):
                parse_canonical(source)
    else:
        assert parse_both(tmp_path, text) == ([recording(subject, "r1", [0], [[1, 2]])], 0)


def test_a_file_already_iterated_with_next_is_still_read(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("# made by hand\n" + HEAD + "s1,r1,0,1,2\ns1,r1,1,3,4\n")
    with open(path, encoding="utf-8", newline="") as fh:
        next(fh)  # the caller skipped a preamble line; fh.tell() now raises
        recs, repaired = parse_canonical(fh)
    assert repaired == 0
    assert recs[0].labels.tolist() == [0, 1]
    assert recs[0].channels.tolist() == [[1, 2], [3, 4]]


def spy_on_cell_reads(monkeypatch) -> list[int]:
    """The line at which each parse from now on starts reading cell by cell."""
    cell_reads = []
    take_cells = recordings_module._Rows.take_cells
    monkeypatch.setattr(recordings_module._Rows, "take_cells",
                        lambda rows, reader, line: cell_reads.append(line)
                        or take_cells(rows, reader, line))
    return cell_reads


def test_canonical_output_is_read_in_bulk_and_gaps_cell_by_cell(tmp_path, monkeypatch):
    cell_reads = spy_on_cell_reads(monkeypatch)
    rng = np.random.default_rng(5)
    recs = [SensorRecording(channels=rng.normal(size=(50, 2)), labels=rng.integers(0, 3, 50),
                            subject_id=f"s{i}", session_id="r1", channel_names=["a", "b"])
            for i in range(3)]
    path = tmp_path / "r.csv"
    write_canonical(recs, path)
    skipped = tmp_path / "skipped.csv"
    skipped.write_text("# made by hand\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(skipped, encoding="utf-8", newline="") as fh:
        next(fh)  # fh.tell() now raises; the read needs no position
        parsed = [parse_canonical(path), parse_canonical(fh)]
    for back, repaired in parsed:
        assert not cell_reads and repaired == 0
        for got, want in zip(back, recs):
            assert (got.subject_id, got.session_id) == (want.subject_id, want.session_id)
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.channels, want.channels)
    back, repaired = parse_canonical(io.StringIO(HEAD + "s1,r1,0,,2\ns1,r1,0,1,2\n"))
    assert cell_reads == [2] and repaired == 1


def test_parse_memory_scales_with_the_recordings(tmp_path, monkeypatch):
    # About 20k rows; the parse once held 5.3-6.7 times the recordings as
    # Python lists of floats. The second file has a gap halfway down, so the
    # read goes cell by cell after many batches in bulk.
    rng = np.random.default_rng(3)
    recs = [
        SensorRecording(channels=rng.normal(size=(10_000, 3)), labels=rng.integers(0, 4, 10_000),
                        subject_id=f"s{i}", session_id="r1", channel_names=["a", "b", "c"])
        for i in range(2)
    ]
    path, gappy = tmp_path / "recordings.csv", tmp_path / "gappy.csv"
    write_canonical(recs, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[10_001] = lines[10_001].rsplit(",", 1)[0] + ",\n"  # s1's first row loses its "c"
    gappy.write_text("".join(lines), encoding="utf-8")
    backward_filled = recs[1].channels.copy()
    backward_filled[0, 2] = backward_filled[1, 2]
    cell_reads = spy_on_cell_reads(monkeypatch)
    for source, repaired, s1_channels in ((path, 0, recs[1].channels), (gappy, 1, backward_filled)):
        (back, filled), peak = peak_bytes(lambda: parse_canonical(source))
        assert filled == repaired
        for got, want, channels in zip(back, recs, [recs[0].channels, s1_channels]):
            assert np.array_equal(got.channels, channels)
            assert np.array_equal(got.labels, want.labels)
        output = sum(rec.channels.nbytes + rec.labels.nbytes for rec in back)
        assert peak <= 2 * output, peak / output
    # The batch that holds the gap, on line 10,002, and the rest go cell by cell.
    assert len(cell_reads) == 1 and 9_000 < cell_reads[0] <= 10_002, cell_reads


def test_fully_missing_channel_cannot_be_repaired():
    with pytest.raises(CanonicalFormatError, match="repair"):
        parse_canonical(
            make_csv(
                """
subject_id,session_id,label,ax,ay
s1,r1,0,,1.0
s1,r1,0,,2.0
"""
            )
        )


def test_recordings_split_per_subject_session_in_file_order():
    recs, _ = parse_canonical(
        make_csv(
            """
subject_id,session_id,label,ax
s2,r1,0,1.0
s1,r1,1,2.0
s1,r2,1,3.0
"""
        )
    )
    assert [(r.subject_id, r.session_id) for r in recs] == [
        ("s2", "r1"),
        ("s1", "r1"),
        ("s1", "r2"),
    ]


def test_round_trip_through_canonical_csv():
    rng = np.random.default_rng(7)
    rec = SensorRecording(
        channels=rng.normal(size=(20, 3)),
        labels=rng.integers(0, 3, size=20),
        subject_id="s1",
        session_id="r1",
        channel_names=["a", "b", "c"],
    )
    buf = io.StringIO()
    write_canonical([rec], buf)
    buf.seek(0)
    back, repaired = parse_canonical(buf)
    assert repaired == 0
    assert np.array_equal(back[0].channels, rec.channels)
    assert np.array_equal(back[0].labels, rec.labels)


def test_written_bytes_are_what_csv_writer_writes():
    channels = np.array([[1e-05, 1e16], [-0.0, np.inf], [0.1, -2.5e-300]])
    recs = [
        SensorRecording(channels=channels, labels=[0, 1, 2], subject_id=subject, session_id=session,
                        channel_names=["a x", "b,y"])
        for subject, session in (("s,1", 'r"1'), ("s\n2", " r2 "), ("", "r3"))
    ]
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["subject_id", "session_id", "label", "a x", "b,y"])
    for rec in recs:
        for label, row in zip(rec.labels.tolist(), rec.channels.tolist()):
            writer.writerow([rec.subject_id, rec.session_id, label, *map(repr, row)])
    got = io.StringIO()
    write_canonical(recs, got)
    assert got.getvalue() == ref.getvalue()
    assert "1e-05,1e+16" in got.getvalue() and "-0.0,inf" in got.getvalue()


def test_invariants_enforced_on_construction():
    with pytest.raises(ValueError, match="labels"):
        SensorRecording(
            channels=np.zeros((3, 1)),
            labels=np.zeros(2, dtype=int),
            subject_id="s",
            session_id="r",
            channel_names=["a"],
        )
    # A recording holds no sample rate: windows, strides and bounds count samples.
    with pytest.raises(ValueError, match="channel_names"):
        SensorRecording(
            channels=np.zeros((3, 1)),
            labels=np.zeros(3, dtype=int),
            subject_id="s",
            session_id="r",
            channel_names=["a", "b"],
        )


def test_corpus_num_classes_requires_contiguous_ids():
    def rec(labels):
        labels = np.asarray(labels)
        return SensorRecording(
            channels=np.zeros((len(labels), 1)),
            labels=labels,
            subject_id="s",
            session_id="r",
            channel_names=["a"],
        )

    assert corpus_num_classes([rec([0, 1]), rec([2, 0])]) == 3
    with pytest.raises(ValueError, match="missing"):
        corpus_num_classes([rec([0, 2])])
    with pytest.raises(ValueError, match="corpus holds one class; an audit needs at least two"):
        corpus_num_classes([rec([0, 0]), rec([0])])
