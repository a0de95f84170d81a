import io

import numpy as np
import pytest

from haraudit import windowing
from haraudit.recordings import SensorRecording
from haraudit.windowing import (
    CHUNK_BYTES,
    WindowConfig,
    WindowTable,
    fit_normalizer,
    read_windows,
    slice_corpus,
    write_windows,
)
from traced_memory import peak_bytes


def make_recording(n, subject="s1", session="r1", labels=None, channels=None):
    if channels is None:
        channels = np.arange(n, dtype=float).reshape(-1, 1)
    if labels is None:  # class 0, then class 1: a corpus needs two classes
        labels = np.arange(n) * 2 // n
    return SensorRecording(
        channels=channels,
        labels=np.asarray(labels),
        subject_id=subject,
        session_id=session,
        channel_names=[f"c{i}" for i in range(np.atleast_2d(channels).shape[1])],
    )


class TestSlicing:
    def test_window_count_and_starts(self):
        ds = slice_corpus([make_recording(500)], WindowConfig(200, 100))
        assert ds.num_windows == 4
        assert ds.windows.bounds[:, 0].tolist() == [0, 100, 200, 300]
        assert (ds.windows.bounds[:, 1] - ds.windows.bounds[:, 0] == 200).all()

    def test_exactly_one_window_at_boundary(self):
        ds = slice_corpus([make_recording(200)], WindowConfig(200, 100))
        assert ds.num_windows == 1

    def test_no_window_below_size(self):
        with pytest.warns(UserWarning, match="shorter"):
            ds = slice_corpus([make_recording(199)], WindowConfig(200, 100))
        assert ds.num_windows == 0

    def test_blocks_carry_the_right_samples(self):
        ds = slice_corpus([make_recording(500)], WindowConfig(200, 100))
        blocks = ds.gather(np.arange(ds.num_windows))
        assert blocks.shape == (4, 200, 1)
        assert blocks[2, 0, 0] == 200.0
        assert blocks[2, -1, 0] == 399.0

    def test_window_ids_dense_across_recordings(self):
        recs = [make_recording(300, subject="s1"), make_recording(250, subject="s2")]
        ds = slice_corpus(recs, WindowConfig(200, 100))
        assert len(ds.windows) == 3
        # second recording's windows are offset by the first recording length
        assert ds.windows.bounds[2, 0] == 300
        assert ds.windows.recording.tolist() == [0, 0, 1]
        assert ds.total_samples == 550

    def test_coverage_and_overlap_invariant(self):
        cfg = WindowConfig(200, 100)
        ds = slice_corpus([make_recording(1000)], cfg)
        bounds = ds.windows.bounds
        covered = np.zeros(bounds[-1, 1], dtype=bool)
        for start, end in bounds:
            covered[start:end] = True
        assert covered.all()
        assert (bounds[:-1, 1] - bounds[1:, 0] == cfg.window_size - cfg.stride).all()

    def test_group_key_units(self):
        rec = make_recording(200, subject="s1", session="morning")
        assert slice_corpus([rec], WindowConfig(200, 100)).windows.group.tolist() == ["s1"]
        ds = slice_corpus([rec], WindowConfig(200, 100, group_by="subject_session"))
        assert ds.windows.group.tolist() == ["s1::morning"]

    def test_unknown_group_unit_is_refused_before_slicing(self):
        short = make_recording(50)  # yields no window, so no group key is ever made
        with pytest.raises(ValueError, match="unknown group unit 'session'"):
            slice_corpus([short], WindowConfig(200, 100, group_by="session"))

    def test_the_config_refuses_an_unknown_group_unit(self):
        with pytest.raises(ValueError, match="unknown group unit 'session'"):
            WindowConfig(group_by="session")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(window_size=200, stride=0)
        with pytest.raises(ValueError):
            WindowConfig(window_size=200, stride=201)
        with pytest.raises(ValueError):
            WindowConfig(label_policy="mode")


class TestBlocks:
    """``gather`` copies windows out of zero-copy views of the recordings."""

    @pytest.mark.parametrize("size, stride", [(4, 3), (4, 4), (5, 1)])
    def test_blocks_equal_a_copy_of_each_window(self, size, stride):
        rng = np.random.default_rng(size * 10 + stride)
        recs = [make_recording(n, subject=f"s{n}", channels=rng.normal(size=(n, 2)))
                for n in (23, size - 1, 17)]
        with pytest.warns(UserWarning, match="recording 1 has"):
            ds = slice_corpus(recs, WindowConfig(size, stride))
        offsets = np.cumsum([0] + [rec.num_samples for rec in recs])
        naive = [recs[r].channels[start - offsets[r]:end - offsets[r]]
                 for (start, end), r in zip(ds.windows.bounds, ds.windows.recording)]
        assert 1 not in ds.windows.recording.tolist()
        blocks = ds.gather(np.arange(ds.num_windows))
        assert blocks.shape == (len(naive), size, 2)
        assert np.array_equal(blocks, np.array(naive))

    def test_a_corpus_of_short_recordings_has_no_blocks(self):
        recs = [make_recording(n, subject=f"s{n}", channels=np.ones((n, 2))) for n in (3, 4)]
        with pytest.warns(UserWarning, match="shorter"):
            ds = slice_corpus(recs, WindowConfig(5, 2))
        assert ds.gather(np.arange(ds.num_windows)).shape == (0, 5, 2)
        assert len(ds.windows) == 0
        assert ds.total_samples == 7

    def test_recordings_must_share_a_channel_count(self):
        # A one-channel recording would otherwise broadcast into every gathered channel.
        recs = [make_recording(10, channels=np.zeros((10, 3))),
                make_recording(10, subject="s2", channels=np.zeros((10, 1)))]
        with pytest.raises(ValueError, match="recording 1 has 1 channels, recording 0 has 3"):
            slice_corpus(recs, WindowConfig(4, 2))

    def test_slicing_memory_scales_with_the_blocks(self):
        # About 20k samples; slicing once held every block twice, then once.
        rng = np.random.default_rng(9)
        recs = [make_recording(10_000, subject=f"s{i}", labels=rng.integers(0, 4, 10_000),
                               channels=rng.normal(size=(10_000, 3))) for i in range(2)]
        ds, peak = peak_bytes(lambda: slice_corpus(recs, WindowConfig(50, 25)))
        assert peak <= 0.5 * block_bytes(ds), peak / block_bytes(ds)

    def test_slicing_copies_no_samples(self):
        # The recording_chain window shape: what slicing holds is the window
        # table and the label counts, a small share of the windows' samples.
        rng = np.random.default_rng(4)
        recs = [make_recording(5_000, subject=f"s{i}", labels=rng.integers(0, 6, 5_000),
                               channels=rng.normal(size=(5_000, 16))) for i in range(3)]
        ds, peak = peak_bytes(lambda: slice_corpus(recs, WindowConfig(200, 50)))
        assert peak <= 0.05 * block_bytes(ds), peak / block_bytes(ds)


def block_bytes(ds):
    """Bytes of a float64 copy of every window of ``ds``."""
    return ds.num_windows * ds.window_size * ds.num_channels * 8


def naive_gather(recs, ds, ids):
    """Each window of ``ids`` copied from its recording by its bounds."""
    offsets = np.cumsum([0] + [rec.num_samples for rec in recs])
    return np.array([recs[r].channels[start - offsets[r]:end - offsets[r]]
                     for (start, end), r in zip(ds.windows.bounds[ids], ds.windows.recording[ids])]
                    ).reshape(len(ids), ds.window_size, ds.num_channels)


class TestGather:
    def dataset(self, channels=2, lengths=(23, 3, 17, 11)):
        rng = np.random.default_rng(channels)
        recs = [make_recording(n, subject=f"s{i}", channels=rng.normal(size=(n, channels)))
                for i, n in enumerate(lengths)]
        with pytest.warns(UserWarning, match="recording 1 has 3 samples"):
            return recs, slice_corpus(recs, WindowConfig(4, 3))

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("ids", [
        "all", "across recordings", "unsorted and repeated", "none", "around the empty one",
    ])
    def test_equals_a_copy_of_each_window(self, channels, ids):
        recs, ds = self.dataset(channels)  # recording 1 is shorter than a window
        assert ds.num_windows == 7 + 5 + 3 and ds.first.tolist() == [0, 7, 7, 12]
        ids = np.array({
            "all": range(ds.num_windows),
            "across recordings": [5, 6, 7, 8, 11, 12, 13],
            "unsorted and repeated": [9, 2, 2, 14, 0, 13, 12, 12, 6, 7, 1],
            "none": [],
            "around the empty one": [6, 7],
        }[ids], dtype=int)
        got = ds.gather(ids)
        assert got.shape == (ids.size, 4, channels)
        assert np.array_equal(got, naive_gather(recs, ds, ids))

    def test_writes_into_out(self):
        recs, ds = self.dataset()
        ids = np.array([3, 4, 10, 1])
        out = np.full((4, 4, 2), np.nan)
        assert ds.gather(ids, out=out) is out
        assert np.array_equal(out, naive_gather(recs, ds, ids))

    @pytest.mark.parametrize("bad", [-1, -15, 15, 99])
    def test_id_outside_the_dataset_rejected(self, bad):
        # A negative id wraps in the window table but not in the offset into
        # its recording's view: unchecked, it copied the wrong window or
        # failed to broadcast.
        _, ds = self.dataset()
        out = np.full((3, 4, 2), np.nan)
        with pytest.raises(ValueError, match=f"window id {bad} outside 0..14"):
            ds.gather([0, bad, 20], out=out)
        assert np.isnan(out).all()

    def test_chunks_cover_the_ids_in_order(self):
        recs, ds = self.dataset()
        ids = np.array([9, 2, 2, 14, 0, 13, 12])
        seen = []
        for start, rows, samples in ds.chunks(ids, 3):
            assert rows.shape == (1 + len(samples) * 4, 2)
            assert np.shares_memory(rows[1:], samples)
            seen.append((start, samples.copy()))
        assert [start for start, _ in seen] == [0, 3, 6]
        assert np.array_equal(np.concatenate([s for _, s in seen]), naive_gather(recs, ds, ids))

    def test_one_window_costs_no_copy_of_its_recording(self):
        # np.take with out= would first copy the whole strided view: 951 windows.
        rec = make_recording(10_000, channels=np.random.default_rng(2).normal(size=(10_000, 4)))
        ds = slice_corpus([rec], WindowConfig(500, 10))
        window = 500 * 4 * 8
        got, peak = peak_bytes(lambda: ds.gather([7]))
        assert peak <= 2 * window, peak / window
        assert np.array_equal(got[0], rec.channels[70:570])


def assign_window_label(labels, policy):
    """Oracle: one window's (label, transition) from its own samples.

    ``majority`` takes the most frequent class, ties to the lowest id, and
    ``last_sample`` the final sample; a window spanning two classes is a
    transition whatever the policy.
    """
    labels = np.asarray(labels, dtype=int)
    uniform = bool((labels == labels[0]).all())
    if policy == "last_sample":
        return int(labels[-1]), not uniform
    return int(np.bincount(labels).argmax()), not uniform


def window_labels(track, size, stride, policy):
    """(label, transition) per window of one recording with label ``track``."""
    rec = make_recording(len(track), labels=track)
    windows = slice_corpus([rec], WindowConfig(size, stride, policy),
                           num_classes=int(max(track)) + 1).windows
    return list(zip(windows.label.tolist(), windows.transition.tolist()))


def oracle_labels(track, size, stride, policy):
    return [assign_window_label(track[s : s + size], policy)
            for s in range(0, len(track) - size + 1, stride)]


class TestWindowLabels:
    def test_majority(self):
        assert window_labels([0] * 120 + [1] * 80, 200, 200, "majority") == [(0, True)]

    def test_majority_tie_takes_lowest_id(self):
        assert window_labels([1] * 100 + [0] * 100, 200, 200, "majority") == [(0, True)]
        assert window_labels([2, 1, 1, 2], 4, 1, "majority") == [(1, True)]

    def test_last_sample(self):
        assert window_labels([0, 0, 1], 3, 1, "last_sample") == [(1, True)]
        assert window_labels([1, 1, 1], 3, 1, "last_sample") == [(1, False)]

    def test_deterministic(self):
        track = np.random.default_rng(0).integers(0, 4, size=200)
        results = {tuple(window_labels(track, 50, 10, "majority")) for _ in range(5)}
        assert len(results) == 1

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            WindowConfig(window_size=0, stride=1)

    @pytest.mark.parametrize("policy", ["majority", "last_sample"])
    @pytest.mark.parametrize("num_classes", [2, 3, 6])
    def test_column_rule_matches_the_per_window_oracle(self, policy, num_classes):
        rng = np.random.default_rng(num_classes)
        for _ in range(20):
            size = int(rng.choice([2, 4, 7, 20]))
            stride = int(rng.integers(1, size + 1))
            # Segments of random length, so windows see runs, transitions and
            # (with even sizes) exact majority ties.
            lengths = rng.integers(1, 2 * size, size=12)
            track = np.repeat(rng.integers(0, num_classes, size=12), lengths)
            track[-1] = num_classes - 1  # every class id in range may occur
            assert (window_labels(track, size, stride, policy)
                    == oracle_labels(track, size, stride, policy))

    def test_exact_ties_on_two_classes(self):
        track = np.tile([1, 1, 0, 0], 10)
        got = window_labels(track, 4, 1, "majority")
        assert got == oracle_labels(track, 4, 1, "majority")
        assert {label for label, _ in got} == {0}


class TestWindowTable:
    def table(self):
        recs = [make_recording(500, subject="s1", labels=[0] * 250 + [1] * 250),
                make_recording(300, subject="s2", labels=[1] * 300)]
        return slice_corpus(recs, WindowConfig(200, 100)).windows

    def assert_same(self, got, want):
        for name in ("bounds", "label", "group", "recording", "transition"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype.kind == b.dtype.kind, name
            assert a.shape == b.shape and np.array_equal(a, b), name

    def test_round_trip(self):
        windows = self.table()
        buf = io.StringIO()
        write_windows(windows, buf)
        assert buf.getvalue().splitlines()[:3] == [
            "window_id,start_sample,end_sample,label,group_key,recording_index,transition",
            "0,0,200,0,s1,0,0",
            "1,100,300,0,s1,0,1",
        ]
        buf.seek(0)
        self.assert_same(read_windows(buf), windows)

    def test_round_trip_of_zero_windows(self):
        with pytest.warns(UserWarning, match="shorter"):
            windows = slice_corpus([make_recording(50)], WindowConfig(200, 100)).windows
        assert len(windows) == 0 and windows.bounds.shape == (0, 2)
        buf = io.StringIO()
        write_windows(windows, buf)
        buf.seek(0)
        self.assert_same(read_windows(buf), windows)

    def test_wrong_header_rejected(self):
        with pytest.raises(ValueError, match="not the header"):
            read_windows(io.StringIO("window_id,start,end\n0,0,200\n"))

    def test_short_row_rejected(self):
        text = "window_id,start_sample,end_sample,label,group_key,recording_index,transition\n0,0\n"
        with pytest.raises(ValueError, match="line 2: expected 7 cells, found 2"):
            read_windows(io.StringIO(text))

    def test_table_has_one_row_per_window(self):
        windows = self.table()
        assert isinstance(windows, WindowTable) and len(windows) == 6
        assert windows.transition.tolist() == [False, True, True, False, False, False]


class TestNormalizer:
    def two_value_dataset(self):
        channels = np.array([[1.0], [3.0]] * 100)
        return slice_corpus([make_recording(200, channels=channels)], WindowConfig(200, 200))

    def test_two_point_stats(self):
        ds = self.two_value_dataset()
        stats = fit_normalizer(ds)
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0
        assert stats.normalize(ds.gather(np.arange(ds.num_windows)))[0, 1, 0] == 1.0  # 3 -> 1

    def test_constant_channel_uses_divisor_one(self):
        channels = np.full((200, 1), 5.0)
        ds = slice_corpus([make_recording(200, channels=channels)], WindowConfig(200, 100))
        stats = fit_normalizer(ds)
        assert stats.mean[0] == 5.0
        assert stats.std[0] == 1.0
        assert np.all(stats.normalize(ds.gather(np.arange(ds.num_windows))) == 0.0)

    def test_train_stats_applied_to_test_value(self):
        ds = self.two_value_dataset()
        stats = fit_normalizer(ds)
        test_channels = np.zeros((200, 1))
        test_ds = slice_corpus(
            [make_recording(200, channels=test_channels)], WindowConfig(200, 100)
        )
        assert np.all(stats.normalize(test_ds.gather(np.arange(test_ds.num_windows))) == -2.0)

    def test_empty_training_split_rejected(self):
        ds = self.two_value_dataset()
        with pytest.raises(ValueError, match="empty"):
            fit_normalizer(ds, window_ids=[])

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_window_id_outside_the_dataset_rejected(self, bad):
        ds = slice_corpus([make_recording(300)], WindowConfig(200, 100))  # 2 windows
        with pytest.raises(ValueError, match=f"window id {bad} outside 0..1"):
            fit_normalizer(ds, window_ids=[0, bad, 5])


def random_dataset(num_windows, channels, size=50, seed=3):
    """``num_windows`` non-overlapping windows of random samples far from zero."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(num_windows * size, channels)) * 30.0 + 1e5 * rng.normal(
        size=channels)
    return slice_corpus([make_recording(num_windows * size, channels=data)],
                        WindowConfig(size, size))


def assert_one_shot_bits(stats, ds, ids):
    """The stats equal the mean and std of all the samples at once, bit for bit."""
    samples = ds.gather(np.arange(ds.num_windows))[ids].reshape(-1, ds.num_channels)
    assert np.array_equal(stats.mean.view(np.int64), samples.mean(axis=0).view(np.int64))
    assert np.array_equal(stats.std.view(np.int64), samples.std(axis=0).view(np.int64))


def chunk_of(channels, size=50):
    """Windows per chunk of a ``random_dataset`` of this many channels."""
    return CHUNK_BYTES // (size * channels * 8)


class TestStreamedNormalizer:
    """fit_normalizer reads the samples chunk by chunk; its stats must equal
    the one-shot mean and std bit for bit."""

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("count", ["one", "chunk-1", "chunk", "chunk+1"])
    def test_window_counts_around_a_chunk(self, channels, count):
        n = chunk_of(channels)
        num_windows = {"one": 1, "chunk-1": n - 1, "chunk": n, "chunk+1": n + 1}[count]
        ds = random_dataset(n + 1, channels)
        ids = np.arange(num_windows)
        assert_one_shot_bits(fit_normalizer(ds, ids), ds, ids)

    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("chunk", [None, 3])
    def test_unsorted_ids_over_many_chunks(self, monkeypatch, channels, chunk):
        if chunk is not None:  # a few windows a chunk: hundreds of carries
            monkeypatch.setattr(windowing, "CHUNK_BYTES", chunk * 50 * channels * 8)
        ds = random_dataset(2 * chunk_of(channels) + 7, channels, seed=11)
        ids = np.random.default_rng(5).permutation(ds.num_windows)[:-3]
        assert_one_shot_bits(fit_normalizer(ds, ids), ds, ids)

    def test_fit_memory_stays_below_the_blocks(self):
        ds = random_dataset(4 * chunk_of(16, size=200) + 5, 16, size=200)  # over 4 chunks
        ids = np.flatnonzero(np.arange(ds.num_windows) % 4)  # three windows in four
        stats, peak = peak_bytes(lambda: fit_normalizer(ds, ids))
        assert peak <= 0.5 * block_bytes(ds), peak / block_bytes(ds)
        assert_one_shot_bits(stats, ds, ids)
