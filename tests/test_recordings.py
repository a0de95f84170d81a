import io

import numpy as np
import pytest

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


def test_parse_memory_scales_with_the_recordings(tmp_path):
    # About 20k rows; the parse once held 5.3-6.7 times the recordings as
    # Python lists of floats.
    rng = np.random.default_rng(3)
    recs = [
        SensorRecording(channels=rng.normal(size=(10_000, 3)), labels=rng.integers(0, 4, 10_000),
                        subject_id=f"s{i}", session_id="r1", channel_names=["a", "b", "c"])
        for i in range(2)
    ]
    path = tmp_path / "recordings.csv"
    write_canonical(recs, path)
    (back, _), peak = peak_bytes(lambda: parse_canonical(path))
    for got, want in zip(back, recs):
        assert np.array_equal(got.channels, want.channels)
        assert np.array_equal(got.labels, want.labels)
    output = sum(rec.channels.nbytes + rec.labels.nbytes for rec in back)
    assert peak <= 2 * output, peak / output


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


def test_invariants_enforced_on_construction():
    with pytest.raises(ValueError, match="labels"):
        SensorRecording(
            channels=np.zeros((3, 1)),
            labels=np.zeros(2, dtype=int),
            subject_id="s",
            session_id="r",
            channel_names=["a"],
        )
    # A recording holds no sample rate; test_cli.py covers the --sample-rate check.
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
