import re

import numpy as np
import pytest

from haraudit.ifc import (
    CorrectnessMatrix,
    common_ground,
    compute_ifc,
    run_lengths,
    single_contributions,
)
from haraudit.mask import build_mask
from haraudit.predictions import merge_runs
from prediction_rows import fused_of, table_of


def matrix(rows, model_ids=None):
    values = np.asarray(rows, dtype=bool)
    if model_ids is None:
        model_ids = tuple(f"m{i}" for i in range(values.shape[0]))
    return CorrectnessMatrix(
        model_ids=tuple(model_ids),
        values=values,
    )


def rle_oracle(flags, recording_ids=None):
    """Independent linear-scan run-length encoder for cross-checking."""
    segments = []
    current_start, current_len = None, 0
    prev_rec = None
    for i, flag in enumerate(flags):
        rec = 0 if recording_ids is None else recording_ids[i]
        if flag and current_start is not None and rec == prev_rec:
            current_len += 1
        elif flag:
            if current_start is not None:
                segments.append((current_start, current_len))
            current_start, current_len = i, 1
        else:
            if current_start is not None:
                segments.append((current_start, current_len))
            current_start, current_len = None, 0
        prev_rec = rec
    if current_start is not None:
        segments.append((current_start, current_len))
    bins = {}
    for _, length in segments:
        k = length.bit_length() - 1
        bins[k] = bins.get(k, 0) + 1
    max_bin = max(bins) if bins else -1
    bin_list = [(2**k, 2 ** (k + 1) - 1, bins.get(k, 0)) for k in range(max_bin + 1)]
    return segments, bin_list


def verdict_table(by_model):
    """One single-run record per (model, window): correct where the verdict is True."""
    return table_of(
        dict(model=model, window=w, probs=(0.9, 0.1) if good else (0.1, 0.9))
        for model, verdicts in by_model.items()
        for w, good in verdicts.items()
    )


class TestBuildMatrix:
    """merge_runs assembles the [models x windows] matrix."""

    def test_explicit_booleans(self):
        m = merge_runs(verdict_table(
            {"a": {0: True, 1: False, 2: True}, "b": {0: False, 1: False, 2: True}}
        ), 3, "majority")
        assert m.model_ids == ("a", "b")
        assert m.values.tolist() == [[True, False, True], [False, False, True]]

    def test_missing_cell_rejected(self):
        with pytest.raises(ValueError, match="lacks correctness"):
            merge_runs(verdict_table({"a": {0: True, 1: True}, "b": {0: True}}), 2, "majority")

    @pytest.mark.parametrize("values, message", [
        ([True, False], "matrix shape (2,) does not match 1 models"),
        ([[True], [False]], "matrix shape (2, 1) does not match 1 models"),
    ], ids=["1-d", "two-rows"])
    def test_values_must_hold_one_row_per_model(self, values, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            CorrectnessMatrix(model_ids=("a",), values=values)

    def test_six_model_shape(self):
        by_model = {f"m{i}": {w: True for w in range(40)} for i in range(6)}
        m = merge_runs(verdict_table(by_model), 40, "any")
        assert m.values.shape == (6, 40)


class TestOverlapMetrics:
    def test_three_by_five_case(self):
        # windows:      0  1  2  3  4
        m = matrix(
            [
                [1, 0, 0, 0, 1],  # A
                [1, 1, 0, 0, 0],  # B
                [1, 0, 0, 0, 1],  # C
            ],
            model_ids=("A", "B", "C"),
        )
        singles = single_contributions(m)
        assert singles == {"A": 0.0, "B": 20.0, "C": 0.0}
        assert common_ground(m) == 40.0
        summary = compute_ifc(m)
        assert summary.ifc == 40.0
        assert summary.ifc_flags.tolist() == [False, False, True, True, False]

    def test_all_correct_everywhere(self):
        m = matrix(np.ones((4, 10)))
        assert all(v == 0.0 for v in single_contributions(m).values())
        assert common_ground(m) == 100.0
        assert compute_ifc(m).ifc == 0.0

    def test_single_model_degenerate(self):
        m = matrix([[1, 1, 0, 1]])
        assert common_ground(m) == 0.0
        summary = compute_ifc(m)
        assert summary.single_contribution["m0"] == 75.0
        assert summary.ifc == 25.0  # 100 - contribution

    def test_closure_property_on_random_matrices(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            n_models = int(rng.integers(1, 9))
            n_windows = int(rng.integers(1, 400))
            m = matrix(rng.integers(0, 2, size=(n_models, n_windows)))
            s = compute_ifc(m)
            total = s.common_ground + sum(s.single_contribution.values()) + s.ifc
            assert abs(total - 100.0) <= 1e-9

    def test_adding_a_model_never_increases_ifc(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            base = rng.integers(0, 2, size=(3, 60))
            extra = rng.integers(0, 2, size=(1, 60))
            before = compute_ifc(matrix(base)).ifc
            after = compute_ifc(matrix(np.vstack([base, extra]))).ifc
            assert after <= before + 1e-12


def flagged_samples(flags, bounds, total_samples):
    """Sample flags from build_mask: a sample is flagged when its category is > 0."""
    flagged = np.flatnonzero(flags)
    fused = fused_of(flagged, np.tile([0.6, 0.3, 0.1], (flagged.size, 1)))
    return build_mask(flags, fused, bounds, total_samples).sample_mask > 0


class TestSampleMerging:
    def test_overlap_or_rule(self):
        bounds = np.array([[0, 200], [100, 300]])
        flags = np.array([False, True])
        merged = flagged_samples(flags, bounds, 300)
        assert not merged[:100].any()
        assert merged[100:300].all()

    def test_all_false(self):
        bounds = np.array([[0, 200], [100, 300]])
        merged = flagged_samples(np.array([False, False]), bounds, 300)
        assert not merged.any()

    def test_uncovered_samples_stay_false(self):
        merged = flagged_samples(np.array([True]), np.array([[10, 20]]), 40)
        assert merged[10:20].all()
        assert not merged[:10].any() and not merged[20:].any()

    def test_alternating_flags_on_five_window_toy(self):
        # size 200 / stride 100 over 600 samples; flags F,T,F,T,F
        bounds = np.array([[0, 200], [100, 300], [200, 400], [300, 500], [400, 600]])
        flags = np.array([False, True, False, True, False])
        merged = flagged_samples(flags, bounds, 600)
        expected = np.zeros(600, dtype=bool)
        for b, f in zip(bounds, flags):
            if f:
                expected[b[0] : b[1]] = True
        assert np.array_equal(merged, expected)
        assert merged[100:500].all() and not merged[:100].any()

    def test_merging_twice_equals_merging_once(self):
        rng = np.random.default_rng(8)
        bounds = np.array([[i * 50, i * 50 + 100] for i in range(20)])
        flags = rng.integers(0, 2, size=20).astype(bool)
        a = flagged_samples(flags, bounds, 1100)
        b = flagged_samples(flags, bounds, 1100)
        assert np.array_equal(a, b)


class TestRunLengths:
    def test_basic_rle(self):
        hist = run_lengths(np.array([1, 1, 0, 1], dtype=bool))
        assert [(s.start_window, s.length) for s in hist.segments] == [(0, 2), (3, 1)]
        assert hist.bins == [(1, 1, 1), (2, 3, 1)]

    def test_all_false(self):
        hist = run_lengths(np.zeros(10, dtype=bool))
        assert hist.segments == [] and hist.bins == []

    def test_recording_indices_must_align(self):
        with pytest.raises(ValueError, match="^recording_indices must align with ifc_flags$"):
            run_lengths(np.ones(3, dtype=bool), [0, 0])

    def test_segments_cover_all_flagged_windows(self):
        rng = np.random.default_rng(4)
        flags = rng.integers(0, 2, size=500).astype(bool)
        hist = run_lengths(flags)
        assert sum(s.length for s in hist.segments) == int(flags.sum())

    def test_runs_do_not_cross_recording_boundaries(self):
        flags = np.ones(6, dtype=bool)
        rec = np.array([0, 0, 0, 1, 1, 1])
        hist = run_lengths(flags, rec)
        assert [(s.start_window, s.length) for s in hist.segments] == [(0, 3), (3, 3)]

    def test_segment_maximality_within_recording(self):
        # a maximal run is flanked by unflagged windows or a boundary, so no
        # two segments in the same recording may touch
        rng = np.random.default_rng(42)
        flags = rng.integers(0, 2, size=300).astype(bool)
        rec = np.repeat(np.arange(3), 100)
        hist = run_lengths(flags, rec)
        assert hist.segments  # sanity: non-empty for this seed
        for seg in hist.segments:
            before, after = seg.start_window - 1, seg.start_window + seg.length
            if before >= 0 and rec[before] == rec[seg.start_window]:
                assert not flags[before]
            if after < 300 and rec[after] == rec[seg.start_window]:
                assert not flags[after]

    def test_matches_linear_scan_oracle_on_random_vectors(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(0, 120))
            flags = (rng.random(n) < 0.6).astype(bool)
            rec = rng.integers(0, 3, size=n) if n and rng.random() < 0.5 else None
            if rec is not None:
                rec = np.sort(rec)
            hist = run_lengths(flags, rec)
            seg_oracle, bin_oracle = rle_oracle(flags.tolist(), None if rec is None else rec.tolist())
            assert [(s.start_window, s.length) for s in hist.segments] == seg_oracle
            assert hist.bins == bin_oracle

    def test_power_of_two_bins(self):
        flags = np.array([1] * 9 + [0] + [1] * 4 + [0] + [1], dtype=bool)
        hist = run_lengths(flags)
        # lengths 9, 4, 1 -> bins [1,1]:1 [2,3]:0 [4,7]:1 [8,15]:1
        assert hist.bins == [(1, 1, 1), (2, 3, 0), (4, 7, 1), (8, 15, 1)]
