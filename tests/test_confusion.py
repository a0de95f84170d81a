import numpy as np
import pytest

from haraudit.confusion import (
    chord_edges,
    confusion_table,
    fuse_probabilities,
    read_fused_jsonl,
    write_fused_jsonl,
)
from prediction_rows import table_of


def rec(window, probs, label=0, model="m1", run=0, config="c"):
    return dict(model=model, config=config, run=run, window=window, label=label, probs=probs)


class TestFusion:
    def test_two_model_mean(self):
        records = [
            rec(0, (0.8, 0.2), label=1, model="a"),
            rec(0, (0.4, 0.6), label=1, model="b"),
        ]
        fused = fuse_probabilities(table_of(records), [0])
        assert np.allclose(fused[0].mean_probs, [0.6, 0.4])
        assert fused[0].confused_class == 0
        assert not fused[0].fused_agrees_with_truth

    def test_identical_records_fuse_to_themselves(self):
        records = [rec(0, (0.3, 0.5, 0.2), label=0, model=m) for m in ("a", "b", "c")]
        fused = fuse_probabilities(table_of(records), [0])
        assert np.allclose(fused[0].mean_probs, [0.3, 0.5, 0.2])

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
        fused = fuse_probabilities(table_of(records), [0])
        assert np.max(np.abs(fused[0].mean_probs - expected)) < 1e-12

    def test_argmax_tie_takes_lowest_class(self):
        records = [
            rec(0, (0.4, 0.4, 0.2), label=2, model="a"),
            rec(0, (0.4, 0.4, 0.2), label=2, model="b"),
        ]
        assert fuse_probabilities(table_of(records), [0])[0].confused_class == 0

    def test_fused_agreeing_with_truth_reports_runner_up(self):
        # each model wrong individually, but the mean favors the true class
        records = [
            rec(0, (0.45, 0.1, 0.45), label=0, model="a"),  # tie -> predicts 0? no:
            rec(0, (0.3, 0.1, 0.6), label=0, model="b"),
        ]
        # mean = [0.375, 0.1, 0.525] -> argmax 2 != 0, normal case
        fused = fuse_probabilities(table_of(records), [0])
        assert fused[0].confused_class == 2
        records = [
            rec(0, (0.6, 0.4, 0.0), label=0, model="a"),
            rec(0, (0.4, 0.1, 0.5), label=0, model="b"),
        ]
        # mean = [0.5, 0.25, 0.25] -> argmax equals truth; runner-up is class 1
        fused = fuse_probabilities(table_of(records), [0])
        assert fused[0].fused_agrees_with_truth
        assert fused[0].confused_class == 1

    def test_missing_model_rejected(self):
        records = [
            rec(0, (0.8, 0.2), label=1, model="a"),
            rec(0, (0.8, 0.2), label=1, model="b"),
            rec(1, (0.8, 0.2), label=1, model="a"),
        ]
        with pytest.raises(ValueError, match="lacks records"):
            fuse_probabilities(table_of(records), [0, 1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        records = [
            rec(0, tuple(rng.dirichlet(np.ones(4))), label=1, model=f"m{m}", run=r)
            for m in range(3)
            for r in range(2)
        ]
        fused_a = fuse_probabilities(table_of(records), [0])[0].mean_probs
        shuffled = list(records)
        rng.shuffle(shuffled)
        fused_b = fuse_probabilities(table_of(shuffled), [0])[0].mean_probs
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
            got = fuse_probabilities(table_of(order), [0])[0].mean_probs
            assert got.tobytes() == want.tobytes()

    def test_no_flagged_windows_gives_empty_list(self):
        assert fuse_probabilities(table_of([rec(0, (0.9, 0.1))]), []) == []

    def test_round_trip_jsonl(self, tmp_path):
        records = [
            rec(0, (0.8, 0.2), label=1, model="a"),
            rec(0, (0.4, 0.6), label=1, model="b"),
        ]
        fused = fuse_probabilities(table_of(records), [0])
        path = tmp_path / "fused.jsonl"
        write_fused_jsonl(fused, path)
        back = read_fused_jsonl(path)
        assert back[0].window_id == fused[0].window_id
        assert back[0].confused_class == fused[0].confused_class
        assert np.array_equal(back[0].mean_probs, fused[0].mean_probs)


class TestConfusionTable:
    def test_ten_window_toy(self):
        # class 0 owns 4 windows, one flagged -> dist 40, rel 25, abs 10
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        flags = np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0], dtype=bool)
        rows = confusion_table(flags, labels)
        assert rows[0].distribution_pct == 40.0
        assert rows[0].relative_pct == 25.0
        assert rows[0].absolute_pct == 10.0

    def test_zero_flagged_class_reports_absent(self):
        labels = np.array([0, 0, 1, 1])
        flags = np.array([1, 0, 0, 0], dtype=bool)
        rows = confusion_table(flags, labels)
        assert rows[1].relative_pct is None
        assert rows[1].absolute_pct is None

    def test_consistency_relation_is_exact(self):
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 5, size=400)
        flags = rng.random(400) < 0.2
        for row in confusion_table(flags, labels):
            if row.relative_pct is not None:
                assert row.absolute_pct == row.distribution_pct * row.relative_pct / 100.0

    def test_distribution_sums_to_100(self):
        rng = np.random.default_rng(20)
        labels = rng.integers(0, 7, size=333)
        flags = rng.random(333) < 0.3
        rows = confusion_table(flags, labels, num_classes=8)
        assert abs(sum(r.distribution_pct for r in rows) - 100.0) <= 1e-9

    def test_absolute_sums_to_flag_share(self):
        rng = np.random.default_rng(30)
        labels = rng.integers(0, 4, size=500)
        flags = rng.random(500) < 0.25
        rows = confusion_table(flags, labels)
        total_abs = sum(r.absolute_pct or 0.0 for r in rows)
        assert abs(total_abs - 100.0 * flags.mean()) <= 1e-9


class TestChordEdges:
    def fused(self, pairs):
        out = []
        for i, (true, confused) in enumerate(pairs):
            probs = np.zeros(4)
            probs[confused] = 1.0
            records = [rec(i, tuple(probs), label=true, model="a")]
            out.extend(fuse_probabilities(table_of(records), [i]))
        return out

    def test_counting(self):
        edges = chord_edges(self.fused([(0, 1), (0, 1), (2, 0)]))
        assert [(e.true_class, e.confused_class, e.weight) for e in edges] == [
            (0, 1, 2),
            (2, 0, 1),
        ]

    def test_empty(self):
        assert chord_edges([]) == []

    def test_weights_sum_to_flagged_count(self):
        pairs = [(0, 1)] * 5 + [(1, 2)] * 3 + [(2, 0)]
        edges = chord_edges(self.fused(pairs))
        assert sum(e.weight for e in edges) == len(pairs)

    def test_dominant_null_confusion_leads_export(self):
        # class 0 acts as a null class confused with everything
        pairs = [(0, 1)] * 6 + [(0, 2)] * 4 + [(1, 2)] * 2 + [(3, 0)]
        edges = chord_edges(self.fused(pairs))
        assert edges[0].true_class == 0 and edges[0].weight == 6
