import numpy as np
import pytest

from haraudit.recordings import SensorRecording
from haraudit.windowing import (
    WindowConfig,
    apply_normalizer,
    assign_window_label,
    fit_normalizer,
    slice_corpus,
)


def make_recording(n, subject="s1", session="r1", labels=None, channels=None):
    if channels is None:
        channels = np.arange(n, dtype=float).reshape(-1, 1)
    if labels is None:
        labels = np.zeros(n, dtype=int)
    return SensorRecording(
        channels=channels,
        sample_rate=100.0,
        labels=np.asarray(labels),
        subject_id=subject,
        session_id=session,
        channel_names=[f"c{i}" for i in range(np.atleast_2d(channels).shape[1])],
    )


class TestSlicing:
    def test_window_count_and_starts(self):
        ds = slice_corpus([make_recording(500)], WindowConfig(200, 100))
        assert ds.num_windows == 4
        assert [w.start_sample for w in ds.windows] == [0, 100, 200, 300]
        assert all(w.end_sample - w.start_sample == 200 for w in ds.windows)

    def test_exactly_one_window_at_boundary(self):
        ds = slice_corpus([make_recording(200)], WindowConfig(200, 100))
        assert ds.num_windows == 1

    def test_no_window_below_size(self):
        with pytest.warns(UserWarning, match="shorter"):
            ds = slice_corpus([make_recording(199)], WindowConfig(200, 100))
        assert ds.num_windows == 0

    def test_blocks_carry_the_right_samples(self):
        ds = slice_corpus([make_recording(500)], WindowConfig(200, 100))
        assert ds.blocks.shape == (4, 200, 1)
        assert ds.blocks[2, 0, 0] == 200.0
        assert ds.blocks[2, -1, 0] == 399.0

    def test_window_ids_dense_across_recordings(self):
        recs = [make_recording(300, subject="s1"), make_recording(250, subject="s2")]
        ds = slice_corpus(recs, WindowConfig(200, 100))
        assert [w.window_id for w in ds.windows] == [0, 1, 2]
        # second recording's windows are offset by the first recording length
        assert ds.windows[2].start_sample == 300
        assert ds.windows[2].recording_index == 1
        assert ds.total_samples == 550

    def test_coverage_and_overlap_invariant(self):
        cfg = WindowConfig(200, 100)
        ds = slice_corpus([make_recording(1000)], cfg)
        covered = np.zeros(ds.windows[-1].end_sample, dtype=bool)
        for w in ds.windows:
            covered[w.start_sample : w.end_sample] = True
        assert covered.all()
        for a, b in zip(ds.windows, ds.windows[1:]):
            assert a.end_sample - b.start_sample == cfg.size - cfg.stride

    def test_group_key_units(self):
        rec = make_recording(200, subject="s1", session="morning")
        assert slice_corpus([rec], WindowConfig(200, 100)).windows[0].group_key == "s1"
        ds = slice_corpus([rec], WindowConfig(200, 100), group_by="subject_session")
        assert ds.windows[0].group_key == "s1::morning"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(size=200, stride=0)
        with pytest.raises(ValueError):
            WindowConfig(size=200, stride=201)
        with pytest.raises(ValueError):
            WindowConfig(label_policy="mode")


class TestWindowLabels:
    def test_majority(self):
        assert assign_window_label([0] * 120 + [1] * 80, "majority") == (0, True)

    def test_majority_tie_takes_lowest_id(self):
        assert assign_window_label([1] * 100 + [0] * 100, "majority")[0] == 0

    def test_last_sample(self):
        assert assign_window_label([0, 0, 1], "last_sample") == (1, True)

    def test_deterministic(self):
        labels = np.random.default_rng(0).integers(0, 4, size=200)
        results = {assign_window_label(labels, "majority") for _ in range(5)}
        assert len(results) == 1

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            assign_window_label([], "majority")


class TestNormalizer:
    def two_value_dataset(self):
        channels = np.array([[1.0], [3.0]] * 100)
        return slice_corpus([make_recording(200, channels=channels)], WindowConfig(200, 200))

    def test_two_point_stats(self):
        ds = self.two_value_dataset()
        stats = fit_normalizer(ds)
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0
        normalized = apply_normalizer(ds, stats)
        assert normalized.blocks[0, 1, 0] == 1.0  # value 3 -> 1.0

    def test_constant_channel_uses_divisor_one(self):
        channels = np.full((200, 1), 5.0)
        ds = slice_corpus([make_recording(200, channels=channels)], WindowConfig(200, 100))
        stats = fit_normalizer(ds)
        assert stats.mean[0] == 5.0
        assert stats.std[0] == 1.0
        assert np.all(apply_normalizer(ds, stats).blocks == 0.0)

    def test_train_stats_applied_to_test_value(self):
        ds = self.two_value_dataset()
        stats = fit_normalizer(ds)
        test_channels = np.zeros((200, 1))
        test_ds = slice_corpus(
            [make_recording(200, channels=test_channels)], WindowConfig(200, 100)
        )
        assert np.all(apply_normalizer(test_ds, stats).blocks == -2.0)

    def test_empty_training_split_rejected(self):
        ds = self.two_value_dataset()
        with pytest.raises(ValueError, match="empty"):
            fit_normalizer(ds, window_ids=[])
