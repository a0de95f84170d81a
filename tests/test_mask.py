import csv
import io
import itertools
from pathlib import Path

import numpy as np
import pytest

from haraudit.mask import (
    CLEAN,
    MAJOR,
    MINOR,
    build_mask,
    write_sample_mask_csv,
    write_window_mask_csv,
)
from prediction_rows import fused_of


def categorize(mean_probs, is_flagged):
    """Oracle: one window's category from its fused probabilities.

    Sorted descending, the probabilities leave gaps between neighbours; a
    flagged window is major when the first gap is the largest (ties to the
    earliest gap), otherwise minor. Unflagged windows are clean.
    """
    if not is_flagged:
        return CLEAN
    ranked = np.sort(np.asarray(mean_probs, dtype=float))[::-1]
    return MAJOR if int(np.argmax(ranked[:-1] - ranked[1:])) == 0 else MINOR


def categories(rows, flags=None):
    """build_mask's window categories for fused vectors ``rows``, window i
    holding row i; every window is flagged unless ``flags`` says otherwise."""
    rows = np.asarray(rows, dtype=float)
    flags = np.ones(len(rows), dtype=bool) if flags is None else np.asarray(flags)
    bounds = np.array([[i, i + 1] for i in range(len(rows))])
    return build_mask(flags, fused_of(range(len(rows)), rows), bounds, len(rows)).window_mask


class TestCategorize:
    def test_top_gap_means_major(self):
        assert categories([[0.7, 0.2, 0.1]]).tolist() == [MAJOR]

    def test_lower_gap_means_minor(self):
        assert categories([[0.4, 0.35, 0.25]]).tolist() == [MINOR]

    def test_unflagged_is_clean_regardless_of_gaps(self):
        assert categories([[0.5, 0.3, 0.2], [0.7, 0.2, 0.1]], [False, False]).tolist() == [
            CLEAN, CLEAN
        ]

    def test_two_classes_always_major(self):
        rng = np.random.default_rng(1)
        assert (categories(rng.dirichlet(np.ones(2), size=20)) == MAJOR).all()

    def test_gap_tie_biases_toward_major(self):
        # gaps (0.2, 0.2): earliest max wins -> major
        assert categories([[0.5, 0.3, 0.1, 0.1]]).tolist() == [MAJOR]

    def test_tied_probability_permutations_agree(self):
        base = [0.4, 0.3, 0.3]
        assert len(set(categories(list(itertools.permutations(base))).tolist())) == 1

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="two class"):
            categories([[1.0]])

    @pytest.mark.parametrize("num_classes", [2, 3, 5, 12])
    def test_column_rule_matches_the_per_window_oracle(self, num_classes):
        rng = np.random.default_rng(num_classes)
        rows = rng.dirichlet(np.full(num_classes, 0.7), size=300)
        # Rows with exact gap ties, in shuffled class order: 0.1 steps and
        # repeated values give equal float gaps.
        ladder = np.linspace(1, 0, num_classes) / np.linspace(1, 0, num_classes).sum()
        ties = [rng.permutation(ladder) for _ in range(20)]
        ties += [rng.permutation(np.full(num_classes, 1 / num_classes)) for _ in range(5)]
        rows = np.vstack([rows, ties])
        flags = rng.random(len(rows)) < 0.8
        want = [categorize(row, flag) for row, flag in zip(rows, flags)]
        assert categories(rows, flags).tolist() == want


class TestBuildMask:
    def test_distribution_and_sample_merge(self):
        bounds = np.array([[0, 200], [100, 300], [200, 400]])
        flags = np.array([False, True, True])
        fused = fused_of([1, 2], [[0.7, 0.2, 0.1], [0.4, 0.35, 0.25]])  # major, minor
        mask = build_mask(flags, fused, bounds, 400)
        assert mask.window_mask.tolist() == [CLEAN, MAJOR, MINOR]
        dist = mask.distribution
        assert abs(dist["clean_pct"] + dist["minor_pct"] + dist["major_pct"] - 100) <= 1e-9
        # overlap [200, 300) of major window 1 and minor window 2 -> major
        assert (mask.sample_mask[200:300] == MAJOR).all()
        assert (mask.sample_mask[300:400] == MINOR).all()
        assert (mask.sample_mask[:100] == CLEAN).all()

    def test_all_clean(self):
        bounds = np.array([[0, 200], [100, 300]])
        mask = build_mask(np.array([False, False]), fused_of([], np.zeros((0, 3))), bounds, 300)
        assert mask.distribution == {
            "clean_pct": 100.0,
            "minor_pct": 0.0,
            "major_pct": 0.0,
        }
        assert not mask.sample_mask.any()

    def test_flagged_window_without_fusion_rejected(self):
        bounds = np.array([[0, 200]])
        with pytest.raises(ValueError, match="no fused"):
            build_mask(np.array([True]), fused_of([], np.zeros((0, 3))), bounds, 200)

    @pytest.mark.parametrize("bounds", [[[0, 200]], [[0, 200, 400], [100, 300, 500]]],
                             ids=["one-row", "three-columns"])
    def test_bounds_must_align_with_the_flags(self, bounds):
        with pytest.raises(ValueError, match="^window_bounds must align with ifc_flags$"):
            build_mask(np.array([False, False]), fused_of([], np.zeros((0, 3))), bounds, 500)

    def test_severity_merge_is_monotone(self):
        # raising one window's category must never lower any sample category
        bounds = np.array([[i * 100, i * 100 + 200] for i in range(10)])
        flags = np.zeros(10, dtype=bool)
        flags[[2, 5, 6]] = True
        minor_probs = [0.4, 0.35, 0.25]
        base = build_mask(flags, fused_of([2, 5, 6], [minor_probs] * 3), bounds, 1100)
        raised = fused_of([2, 5, 6], [[0.9, 0.05, 0.05], minor_probs, minor_probs])  # 2 -> major
        bumped = build_mask(flags, raised, bounds, 1100)
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
        fused = fused_of([1, 2], [[0.7, 0.2, 0.1], [0.4, 0.35, 0.25]])
        return build_mask(flags, fused, bounds, 400), bounds

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
        mask = build_mask(np.zeros(n, dtype=bool), fused_of([], np.zeros((0, 3))), bounds, n + 1)
        buf = io.StringIO()
        write_window_mask_csv(mask, bounds, buf)
        assert len(buf.getvalue().strip().splitlines()) == n + 1
