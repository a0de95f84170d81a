import csv
import io
import itertools
from pathlib import Path

import numpy as np
import pytest

from haraudit.confusion import FusedDistribution
from haraudit.mask import (
    CLEAN,
    MAJOR,
    MINOR,
    build_mask,
    categorize,
    write_sample_mask_csv,
    write_window_mask_csv,
)


def fused(window_id, probs, label=0):
    probs = np.asarray(probs, dtype=float)
    return FusedDistribution(
        window_id=window_id,
        mean_probs=probs,
        confused_class=int(np.argmax(probs)),
        true_label=label,
    )


class TestCategorize:
    def test_top_gap_means_major(self):
        assert categorize([0.7, 0.2, 0.1], True) == MAJOR

    def test_lower_gap_means_minor(self):
        assert categorize([0.4, 0.35, 0.25], True) == MINOR

    def test_unflagged_is_clean_regardless_of_gaps(self):
        assert categorize([0.5, 0.3, 0.2], False) == CLEAN

    def test_two_classes_always_major(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.dirichlet(np.ones(2))
            assert categorize(p, True) == MAJOR

    def test_gap_tie_biases_toward_major(self):
        # gaps (0.2, 0.2): earliest max wins -> major
        assert categorize([0.5, 0.3, 0.1, 0.1], True) == MAJOR

    def test_tied_probability_permutations_agree(self):
        base = [0.4, 0.3, 0.3]
        cats = {categorize(list(p), True) for p in itertools.permutations(base)}
        assert len(cats) == 1

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            categorize([1.0], True)


class TestBuildMask:
    def test_distribution_and_sample_merge(self):
        bounds = np.array([[0, 200], [100, 300], [200, 400]])
        flags = np.array([False, True, True])
        fused_list = [
            fused(1, [0.7, 0.2, 0.1]),  # major
            fused(2, [0.4, 0.35, 0.25]),  # minor
        ]
        mask = build_mask(flags, fused_list, bounds, 400)
        assert mask.window_mask.tolist() == [CLEAN, MAJOR, MINOR]
        dist = mask.distribution
        assert abs(dist["clean_pct"] + dist["minor_pct"] + dist["major_pct"] - 100) <= 1e-9
        # overlap [200, 300) of major window 1 and minor window 2 -> major
        assert (mask.sample_mask[200:300] == MAJOR).all()
        assert (mask.sample_mask[300:400] == MINOR).all()
        assert (mask.sample_mask[:100] == CLEAN).all()

    def test_all_clean(self):
        bounds = np.array([[0, 200], [100, 300]])
        mask = build_mask(np.array([False, False]), [], bounds, 300)
        assert mask.distribution == {
            "clean_pct": 100.0,
            "minor_pct": 0.0,
            "major_pct": 0.0,
        }
        assert not mask.sample_mask.any()

    def test_flagged_window_without_fusion_rejected(self):
        bounds = np.array([[0, 200]])
        with pytest.raises(ValueError, match="no fused"):
            build_mask(np.array([True]), [], bounds, 200)

    def test_severity_merge_is_monotone(self):
        # raising one window's category must never lower any sample category
        bounds = np.array([[i * 100, i * 100 + 200] for i in range(10)])
        flags = np.zeros(10, dtype=bool)
        flags[[2, 5, 6]] = True
        minor_probs = [0.4, 0.35, 0.25]
        base_fused = [fused(w, minor_probs) for w in (2, 5, 6)]
        base = build_mask(flags, base_fused, bounds, 1100)
        raised_fused = [
            fused(2, [0.9, 0.05, 0.05]),  # minor -> major
            fused(5, minor_probs),
            fused(6, minor_probs),
        ]
        bumped = build_mask(flags, raised_fused, bounds, 1100)
        assert bumped.window_mask[2] > base.window_mask[2]
        assert (bumped.sample_mask >= base.sample_mask).all()


def csv_rows(src):
    """Rows of a CSV export given as a path or as an open text stream."""
    if isinstance(src, (str, Path)):
        with open(src, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    return list(csv.reader(src))


def read_window_mask_csv(src):
    """(categories, bounds) read back from a window mask export."""
    rows = csv_rows(src)
    assert rows[0] == ["window_id", "start_sample", "end_sample", "category"]
    categories = np.asarray([int(row[3]) for row in rows[1:]], dtype=np.int8)
    return categories, np.asarray([(int(row[1]), int(row[2])) for row in rows[1:]], dtype=int)


def read_sample_mask_csv(src):
    rows = csv_rows(src)
    assert rows[0] == ["sample_index", "category"]
    return np.asarray([int(row[1]) for row in rows[1:]], dtype=np.int8)


class TestMaskExports:
    def build(self):
        bounds = np.array([[0, 200], [100, 300], [200, 400]])
        flags = np.array([False, True, True])
        fused_list = [fused(1, [0.7, 0.2, 0.1]), fused(2, [0.4, 0.35, 0.25])]
        return build_mask(flags, fused_list, bounds, 400), bounds

    def test_window_csv_rows(self):
        mask, bounds = self.build()
        buf = io.StringIO()
        write_window_mask_csv(mask, bounds, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "window_id,start_sample,end_sample,category"
        assert lines[1:] == ["0,0,200,0", "1,100,300,2", "2,200,400,1"]

    def test_round_trip(self):
        mask, bounds = self.build()
        wbuf, sbuf = io.StringIO(), io.StringIO()
        write_window_mask_csv(mask, bounds, wbuf)
        write_sample_mask_csv(mask, sbuf)
        wbuf.seek(0)
        sbuf.seek(0)
        categories, bounds_back = read_window_mask_csv(wbuf)
        samples_back = read_sample_mask_csv(sbuf)
        assert np.array_equal(categories, mask.window_mask)
        assert np.array_equal(bounds_back, bounds)
        assert np.array_equal(samples_back, mask.sample_mask)

    def test_line_count_scales_with_windows(self):
        n = 10_000
        bounds = np.array([[i, i + 1] for i in range(n)])
        mask = build_mask(np.zeros(n, dtype=bool), [], bounds, n + 1)
        buf = io.StringIO()
        write_window_mask_csv(mask, bounds, buf)
        assert len(buf.getvalue().strip().splitlines()) == n + 1
