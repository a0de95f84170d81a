import io
import re

import numpy as np
import pytest

from haraudit.confusion import (
    chord_edges,
    confusion_table,
    fuse_probabilities,
    read_fused_jsonl,
    write_fused_jsonl,
)
from haraudit.predictions import read_records
from prediction_rows import table_of

FUSED_COLUMNS = ("window", "label", "confused", "agrees", "mean_probs")


def assert_same_fused(got, want):
    for name in FUSED_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def rec(window, probs, label=0, model="m1", run=0, config="c"):
    return dict(model=model, config=config, run=run, window=window, label=label, probs=probs)


def fuse(records, flagged):
    """``fuse_probabilities`` over a window table whose labels are the records' own."""
    labels = np.zeros(max(r["window"] for r in records) + 1, dtype=int)
    for r in records:
        labels[r["window"]] = r["label"]
    return fuse_probabilities(table_of(records), flagged, labels)


class TestFusion:
    def test_two_model_mean(self):
        records = [
            rec(0, (0.8, 0.2), label=1, model="a"),
            rec(0, (0.4, 0.6), label=1, model="b"),
        ]
        fused = fuse(records, [0])
        assert np.allclose(fused.mean_probs[0], [0.6, 0.4])
        assert fused.confused[0] == 0
        assert not fused.agrees[0]

    def test_identical_records_fuse_to_themselves(self):
        records = [rec(0, (0.3, 0.5, 0.2), label=0, model=m) for m in ("a", "b", "c")]
        fused = fuse(records, [0])
        assert np.allclose(fused.mean_probs[0], [0.3, 0.5, 0.2])

    def test_matches_summation_oracle_on_random_simplexes(self):
        rng = np.random.default_rng(66)
        records = []
        expected = np.zeros(5)
        count = 0
        for m in range(6):
            for run in range(4):
                p = rng.dirichlet(np.ones(5))
                records.append(rec(0, tuple(p), label=1, model=f"m{m}", run=run))
                expected += np.asarray(records[-1]["probs"])
                count += 1
        expected /= count
        fused = fuse(records, [0])
        assert np.max(np.abs(fused.mean_probs[0] - expected)) < 1e-12

    def test_argmax_tie_takes_lowest_class(self):
        records = [
            rec(0, (0.4, 0.4, 0.2), label=2, model="a"),
            rec(0, (0.4, 0.4, 0.2), label=2, model="b"),
        ]
        assert fuse(records, [0]).confused[0] == 0

    def test_fused_agreeing_with_truth_reports_runner_up(self):
        # each model wrong individually, but the mean favors the true class
        records = [
            rec(0, (0.45, 0.1, 0.45), label=0, model="a"),  # tie -> predicts 0? no:
            rec(0, (0.3, 0.1, 0.6), label=0, model="b"),
        ]
        # mean = [0.375, 0.1, 0.525] -> argmax 2 != 0, normal case
        fused = fuse(records, [0])
        assert fused.confused[0] == 2
        records = [
            rec(0, (0.6, 0.4, 0.0), label=0, model="a"),
            rec(0, (0.4, 0.1, 0.5), label=0, model="b"),
        ]
        # mean = [0.5, 0.25, 0.25] -> argmax equals truth; runner-up is class 1
        fused = fuse(records, [0])
        assert fused.agrees[0]
        assert fused.confused[0] == 1

    def test_columns_match_a_per_window_oracle(self):
        rng = np.random.default_rng(8)
        # Probabilities in quarters, so fused vectors often tie at the top.
        records = [
            rec(w, tuple(rng.multinomial(4, np.ones(3) / 3) / 4), label=w % 3, model=m, run=r)
            for w in range(60) for m in ("a", "b") for r in range(2)
        ]
        flagged = rng.permutation(60)[:40]
        fused = fuse(records, flagged)
        assert fused.window.tolist() == sorted(flagged.tolist())
        for i, w in enumerate(fused.window.tolist()):
            rows = sorted((r for r in records if r["window"] == w),
                          key=lambda r: (r["model"], r["config"], r["run"]))
            mean = np.mean([r["probs"] for r in rows], axis=0)
            top = int(np.argmax(mean))
            runner_up = np.where(np.arange(3) == top, -np.inf, mean)
            want = int(np.argmax(runner_up)) if top == w % 3 else top
            assert fused.mean_probs[i].tobytes() == mean.tobytes()
            assert (fused.label[i], fused.confused[i], fused.agrees[i]) == (w % 3, want, top == w % 3)

    def test_label_comes_from_the_window_table(self):
        records = [rec(0, (0.2, 0.3, 0.5), label=1), rec(1, (0.5, 0.3, 0.2), label=1)]
        fused = fuse_probabilities(table_of(records), [0, 1], [2, 0])
        assert fused.label.tolist() == [2, 0]
        assert fused.agrees.tolist() == [True, True]
        assert fused.confused.tolist() == [1, 1]

    def test_missing_model_rejected(self):
        records = [
            rec(0, (0.8, 0.2), label=1, model="a"),
            rec(0, (0.8, 0.2), label=1, model="b"),
            rec(1, (0.8, 0.2), label=1, model="a"),
        ]
        with pytest.raises(ValueError, match="lacks records"):
            fuse(records, [0, 1])

    @pytest.mark.parametrize("rows", [[rec(0, (0.8, 0.2), model="a"), rec(1, (0.8, 0.2))], []],
                             ids=["records-elsewhere", "no-records"])
    def test_flagged_window_without_records_rejected(self, rows):
        table = table_of(rows) if rows else read_records(io.StringIO(""))
        with pytest.raises(ValueError, match=r"^flagged window 2 has no records$"):
            fuse_probabilities(table, [2], [0, 0, 0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        records = [
            rec(0, tuple(rng.dirichlet(np.ones(4))), label=1, model=f"m{m}", run=r)
            for m in range(3)
            for r in range(2)
        ]
        fused_a = fuse(records, [0]).mean_probs[0]
        shuffled = list(records)
        rng.shuffle(shuffled)
        fused_b = fuse(shuffled, [0]).mean_probs[0]
        assert np.array_equal(fused_a, fused_b)

    def test_mean_sums_rows_in_model_config_run_order(self):
        rng = np.random.default_rng(12)
        records = [
            rec(0, tuple(rng.dirichlet(np.ones(5))), label=1, model=m, config=c, run=r)
            for m in ("m1", "m0") for c in ("cb", "ca") for r in (2, 0, 1)
        ]
        ordered = sorted(records, key=lambda r: (r["model"], r["config"], r["run"]))
        want = np.mean([r["probs"] for r in ordered], axis=0)
        for order in (records, ordered, records[::-1]):
            got = fuse(order, [0]).mean_probs[0]
            assert got.tobytes() == want.tobytes()

    def test_no_flagged_windows_gives_empty_list(self):
        fused = fuse([rec(0, (0.9, 0.1))], [])
        assert len(fused) == 0 and fused.mean_probs.shape == (0, 2)
        assert len(fuse_probabilities(read_records(io.StringIO("")), [], [])) == 0

    def test_round_trip_jsonl(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [
            rec(w, tuple(rng.dirichlet(np.ones(4))), label=w % 4, model=m, run=r)
            for w in range(6) for m in ("a", "b") for r in range(2)
        ]
        fused = fuse(records, [4, 0, 2, 5])
        path = tmp_path / "fused.jsonl"
        write_fused_jsonl(fused, path)
        assert path.read_text().splitlines()[0].startswith(
            '{"window": 0, "label": 0, "confused": '
        )
        assert_same_fused(read_fused_jsonl(path), fused)

    def test_round_trip_of_zero_windows(self, tmp_path):
        fused = fuse([rec(0, (0.9, 0.1))], [])
        path = tmp_path / "fused.jsonl"
        write_fused_jsonl(fused, path)
        assert path.read_text() == ""
        back = read_fused_jsonl(path)
        assert len(back) == 0 and back.mean_probs.shape == (0, 0)
        for name in FUSED_COLUMNS[:-1]:
            assert getattr(back, name).dtype == getattr(fused, name).dtype, name


class TestConfusionTable:
    def test_ten_window_toy(self):
        # class 0 owns 4 windows, one flagged -> dist 40, rel 25, abs 10
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        flags = np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0], dtype=bool)
        rows = confusion_table(flags, labels, num_classes=3)
        assert rows[0].dist_pct == 40.0
        assert rows[0].rel_pct == 25.0
        assert rows[0].abs_pct == 10.0

    def test_zero_flagged_class_reports_absent(self):
        labels = np.array([0, 0, 1, 1])
        flags = np.array([1, 0, 0, 0], dtype=bool)
        rows = confusion_table(flags, labels, num_classes=2)
        assert rows[1].rel_pct is None
        assert rows[1].abs_pct is None

    def test_consistency_relation_is_exact(self):
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 5, size=400)
        flags = rng.random(400) < 0.2
        for row in confusion_table(flags, labels, num_classes=5):
            if row.rel_pct is not None:
                assert row.abs_pct == row.dist_pct * row.rel_pct / 100.0

    def test_distribution_sums_to_100(self):
        rng = np.random.default_rng(20)
        labels = rng.integers(0, 7, size=333)
        flags = rng.random(333) < 0.3
        rows = confusion_table(flags, labels, num_classes=8)
        assert abs(sum(r.dist_pct for r in rows) - 100.0) <= 1e-9

    @pytest.mark.parametrize("flags, labels, error, message", [
        ([True, False], [0], ValueError, "ifc_flags and labels must align"),
        ([], [], ValueError, "no windows"),
        # bincount counts class 3, which the table has no row for.
        ([True, False, False], [0, 1, 3], RuntimeError,
         "class distribution sums to 66.66666666666667, not 100"),
    ], ids=["misaligned", "no-windows", "label-outside"])
    def test_refusals(self, flags, labels, error, message):
        with pytest.raises(error, match=re.escape(message) + "$"):
            confusion_table(np.array(flags, dtype=bool), labels, num_classes=3)

    def test_absolute_sums_to_flag_share(self):
        rng = np.random.default_rng(30)
        labels = rng.integers(0, 4, size=500)
        flags = rng.random(500) < 0.25
        rows = confusion_table(flags, labels, num_classes=4)
        total_abs = sum(r.abs_pct or 0.0 for r in rows)
        assert abs(total_abs - 100.0 * flags.mean()) <= 1e-9


class TestChordEdges:
    def fused(self, pairs):
        records = []
        for i, (true, confused) in enumerate(pairs):
            probs = np.zeros(4)
            probs[confused] = 1.0
            records.append(rec(i, tuple(probs), label=true, model="a"))
        return fuse(records or [rec(0, (1, 0, 0, 0))], range(len(pairs)))

    def test_counting(self):
        edges = chord_edges(self.fused([(0, 1), (0, 1), (2, 0)]))
        assert edges == [
            (0, 1, 2),
            (2, 0, 1),
        ]

    def test_empty(self):
        assert chord_edges(self.fused([])) == []

    def test_matches_a_pair_count_oracle(self):
        rng = np.random.default_rng(44)
        pairs = [tuple(p) for p in rng.integers(0, 4, size=(200, 2)).tolist() if p[0] != p[1]]
        counts = {}
        for pair in pairs:
            counts[pair] = counts.get(pair, 0) + 1
        want = sorted(((t, c, w) for (t, c), w in counts.items()),
                      key=lambda e: (-e[2], e[0], e[1]))
        assert chord_edges(self.fused(pairs)) == want

    def test_weights_sum_to_flagged_count(self):
        pairs = [(0, 1)] * 5 + [(1, 2)] * 3 + [(2, 0)]
        edges = chord_edges(self.fused(pairs))
        assert sum(weight for _, _, weight in edges) == len(pairs)

    def test_dominant_null_confusion_leads_export(self):
        # class 0 acts as a null class confused with everything
        pairs = [(0, 1)] * 6 + [(0, 2)] * 4 + [(1, 2)] * 2 + [(3, 0)]
        edges = chord_edges(self.fused(pairs))
        true_class, _, weight = edges[0]
        assert true_class == 0 and weight == 6
