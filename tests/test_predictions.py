import io
import json
import re

import numpy as np
import pytest

from haraudit.predictions import (
    COLUMNS,
    PredictionTable,
    RecordError,
    best_hyperparams,
    filter_to_configs,
    merge_runs,
    model_metrics,
    read_records,
    write_records,
)
from prediction_rows import assert_same_table, table_of
from traced_memory import peak_bytes


def rec(
    window=0,
    label=0,
    probs=(0.6, 0.4),
    model="m1",
    config="c1",
    run=0,
    fold=0,
    dataset="d",
):
    return dict(dataset=dataset, model=model, config=config, run=run, fold=fold,
                window=window, label=label, probs=probs)


def read_back(rows, **kwargs):
    """Read rows back as a JSONL log, one line per row."""
    rows = [{**rec(), **row, "probs": list(row["probs"])} for row in rows]
    return read_records(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)), **kwargs)


def correct(row):
    return bool(table_of([row]).correct[0])


class TestCorrectness:
    def test_clear_argmax(self):
        assert correct(rec(label=1, probs=(0.1, 0.9)))

    def test_tie_resolves_to_lowest_index(self):
        assert not correct(rec(label=1, probs=(0.5, 0.5)))

    def test_three_way(self):
        assert correct(rec(label=2, probs=(0.3, 0.3, 0.4)))


class TestRoundTrip:
    def test_write_read_identity(self):
        rng = np.random.default_rng(11)
        rows = [
            rec(window=w, label=int(rng.integers(0, 4)), probs=tuple(rng.dirichlet(np.ones(4))),
                run=w % 3)
            for w in range(25)
        ]
        buf = io.StringIO()
        write_records(table_of(rows), buf)
        buf.seek(0)
        # float text is exact round-trip
        assert_same_table(read_records(buf), table_of(rows))

    def test_simplex_accepted_at_exact_sum(self):
        assert len(read_back([rec(probs=(0.5, 0.5))])) == 1

    def test_simplex_violation_rejected_with_index(self):
        with pytest.raises(RecordError, match="record 1"):
            read_back([rec(probs=(0.5, 0.5)), rec(window=1, probs=(0.6, 0.5))])

    def test_duplicate_key_rejected(self):
        # The key names four fields and gives four values; the dataset id is the log's.
        with pytest.raises(RecordError, match=re.escape(
                "record 1: duplicate (model, config, run, window) key ('m1', 'c1', 0, 0)")):
            read_back([rec(probs=(0.5, 0.5)), rec(probs=(0.4, 0.6))])

    def test_unknown_window_rejected(self):
        with pytest.raises(RecordError, match="unknown window"):
            read_back([rec(window=99)], valid_window_ids=range(10))

    def test_negative_probability_rejected(self):
        buf = io.StringIO()
        buf.write('{"dataset":"d","model":"m","config":"c","run":0,"fold":0,'
                  '"window":0,"label":0,"probs":[1.2,-0.2]}\n')
        buf.seek(0)
        with pytest.raises(RecordError, match="negative"):
            read_records(buf)


class TestValidationRules:
    def test_one_class_count_per_log(self):
        # Without num_classes the first record fixes the count for every dataset.
        rows = [rec(dataset="a", probs=(0.5, 0.5)), rec(dataset="b", probs=(0.2, 0.3, 0.5))]
        with pytest.raises(RecordError, match="record 1: expected 2 classes, found 3"):
            read_back(rows)

    def test_num_classes_overrides_the_first_record(self):
        with pytest.raises(RecordError, match="record 0: expected 3 classes, found 2"):
            read_back([rec(probs=(0.5, 0.5))], num_classes=3)

    def test_earliest_faulty_record_is_named_among_array_checks(self):
        rows = [rec(probs=(0.5, 0.5)), rec(window=1, probs=(1.2, -0.2)),
                rec(window=2), rec(window=2, probs=(0.4, 0.6))]
        with pytest.raises(RecordError, match="record 1: negative probability"):
            read_back(rows)

    def test_class_count_fault_is_named_before_earlier_array_faults(self):
        # A wrong class count stops the read, so the later record is named.
        rows = [rec(probs=(0.5, 0.5)), rec(window=1, probs=(1.2, -0.2)),
                rec(window=2, probs=(0.2, 0.3, 0.5))]
        with pytest.raises(RecordError, match="record 2: expected 2 classes, found 3"):
            read_back(rows)

    def test_first_failing_check_of_a_record_is_reported(self):
        # Record 1 repeats record 0's key and also sums to 1.1: the sum check comes first.
        with pytest.raises(RecordError, match="record 1: probabilities sum to 1.10000000"):
            read_back([rec(probs=(0.5, 0.5)), rec(probs=(0.5, 0.6))])

    def test_non_finite_probability_rejected(self):
        buf = io.StringIO('{"dataset":"d","model":"m","config":"c","run":0,"fold":0,'
                          '"window":0,"label":0,"probs":[NaN,0.5]}\n')
        with pytest.raises(RecordError, match="record 0: probabilities sum to nan"):
            read_records(buf)

    def test_malformed_record_rejected(self):
        buf = io.StringIO('{"dataset":"d","model":"m","config":"c","run":0,"fold":0,'
                          '"window":0,"label":0,"probs":"0.5"}\n')
        with pytest.raises(RecordError, match="record 0: malformed record"):
            read_records(buf)

    @pytest.mark.parametrize("field, value, kind", [
        ("run", 0.9, "integer"), ("window", 2.0, "integer"), ("label", True, "integer"),
        ("fold", "0", "integer"), ("model", 5, "string"), ("dataset", None, "string"),
    ])
    def test_fields_must_have_their_json_type(self, field, value, kind):
        # Before, int() and str() turned 0.9 into 0, true into 1 and null into "None".
        rows = [rec(), {**rec(window=1), field: value}]
        with pytest.raises(RecordError, match=f"record 1: malformed record: {field} "
                                              f".* is not a JSON {kind}"):
            read_back(rows)

    @pytest.mark.parametrize("field, value", [
        ("window", 10**20), ("run", -2**63 - 1), ("label", 2**63),
    ])
    def test_integers_must_fit_in_int64(self, field, value):
        # Before, numpy raised a bare OverflowError that named no record.
        rows = [rec(), {**rec(window=1), field: value}]
        with pytest.raises(RecordError, match=f"record 1: malformed record: {field} "
                                              f"{value} does not fit in int64"):
            read_back(rows)

    def test_a_log_holds_one_dataset(self):
        rows = [rec(), rec(window=1), rec(window=2, dataset="e")]
        with pytest.raises(RecordError,
                           match="record 2: dataset 'e' differs from the log's dataset 'd'"):
            read_back(rows)


class TestTypedBuffers:
    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize("num_classes", [None, 3])
    def test_a_log_without_records_gives_an_empty_table(self, text, num_classes):
        table = read_records(io.StringIO(text), num_classes=num_classes)
        assert len(table) == 0
        assert table.probs.shape == (0, num_classes or 0)
        assert table.dataset == ""
        for name in COLUMNS:
            column = getattr(table, name)
            assert len(column) == 0, name
            assert column.dtype.kind == {"model": "U", "config": "U",
                                         "probs": "f"}.get(name, "i"), name

    def test_text_columns_keep_the_width_of_the_longest_value(self):
        rows = [rec(model="m"), rec(window=1, model="a-long-model-id", probs=(0.5, 0.5))]
        table = read_back(rows)
        assert table.model.tolist() == ["m", "a-long-model-id"]
        assert table.model.dtype == np.dtype("<U15")

    def test_parse_memory_scales_with_the_table(self, tmp_path):
        # About 20k records; the parse once held 2.9-3.6 times the table in
        # Python objects.
        rng = np.random.default_rng(5)
        n, k = 20_000, 6
        models = np.array(["cnn", "lstm", "mlp", "attend"])
        table = PredictionTable(
            dataset="bench", model=models[np.arange(n) % 4],
            config=np.full(n, "cfg-a"), run=np.zeros(n, dtype=np.int64),
            fold=np.arange(n) // 4 % 5, window=np.arange(n) // 4,
            label=rng.integers(0, k, n), probs=rng.dirichlet(np.ones(k), n),
        )
        path = tmp_path / "log.jsonl"
        write_records(table, path)
        got, peak = peak_bytes(lambda: read_records(path))
        assert_same_table(got, table)
        table_bytes = sum(getattr(got, name).nbytes for name in COLUMNS)
        assert peak <= 2.5 * table_bytes, peak / table_bytes


def correctness_records(model, config, flags_per_run, label=0):
    """One row per (run, window); flags say whether that run was correct."""
    records = []
    for run, flags in enumerate(flags_per_run):
        for window, good in enumerate(flags):
            probs = (0.9, 0.1) if good else (0.1, 0.9)
            records.append(
                rec(window=window, label=label, probs=probs,
                    model=model, config=config, run=run, fold=0)
            )
    return records


def merged(records, policy="majority"):
    """Run-merged verdicts of model m1 per window id."""
    table = table_of(records)
    matrix = merge_runs(table, int(table.window.max()) + 1, policy)
    assert matrix.model_ids == ("m1",)
    return dict(enumerate(matrix.values[0].tolist()))


class TestBestHyperparams:
    def test_higher_accuracy_wins(self):
        records = correctness_records("m1", "A", [[1, 1, 1, 0]])
        records += correctness_records("m1", "B", [[1, 1, 0, 0]])
        assert best_hyperparams(table_of(records)) == {("d", "m1"): "A"}

    def test_tie_takes_lexicographically_smallest_config(self):
        records = correctness_records("m1", "bs256_lr0.01", [[1, 0]])
        records += correctness_records("m1", "bs064_lr0.01", [[0, 1]])
        assert best_hyperparams(table_of(records))[("d", "m1")] == "bs064_lr0.01"

    def test_nine_config_grid_has_unique_argmax(self):
        # 3x3 grid over 10 windows; config k gets k+... distinct accuracies
        records = []
        accs = {}
        k = 0
        for lr in ("0.1", "0.01", "0.001"):
            for bs in ("0064", "0256", "1024"):
                config = f"bs{bs}_lr{lr}"
                correct = k + 1  # 1..9 of 10 windows correct
                accs[config] = correct / 10
                records += correctness_records(
                    "m1", config, [[1] * correct + [0] * (10 - correct)]
                )
                k += 1
        chosen = best_hyperparams(table_of(records))[("d", "m1")]
        assert chosen == max(accs, key=lambda c: (accs[c], c))
        assert accs[chosen] == 0.9

    def test_mean_over_runs_decides(self):
        # A: runs 100% and 0% -> mean 0.5; B: runs 100% and 50% -> mean 0.75
        records = correctness_records("m1", "A", [[1, 1], [0, 0]])
        records += correctness_records("m1", "B", [[1, 1], [1, 0]])
        assert best_hyperparams(table_of(records))[("d", "m1")] == "B"

    def test_missing_fold_coverage_raises(self):
        records = correctness_records("m1", "A", [[1, 1]])
        extra = rec(window=5, model="m1", config="B", fold=3)
        with pytest.raises(ValueError, match="lacks folds"):
            best_hyperparams(table_of(records + [extra]))

    def test_filtering_keeps_window_coverage(self):
        records = table_of(correctness_records("m1", "A", [[1, 0, 1]])
                           + correctness_records("m1", "B", [[0, 1, 1]]))
        chosen = best_hyperparams(records)
        kept = filter_to_configs(records, chosen)
        assert set(kept.config.tolist()) == {chosen[("d", "m1")]}
        assert set(kept.window.tolist()) == set(records.window.tolist())


class TestMergeRuns:
    def test_majority_three_of_four(self):
        records = correctness_records("m1", "c", [[1], [1], [1], [0]])
        assert merged(records, "majority")[0] is True

    def test_exact_half_is_incorrect(self):
        records = correctness_records("m1", "c", [[1], [1], [0], [0]])
        assert merged(records, "majority")[0] is False

    def test_single_run_equal_under_all_policies(self):
        for flag in (0, 1):
            records = correctness_records("m1", "c", [[flag]])
            for policy in ("any", "majority", "all"):
                assert merged(records, policy)[0] is bool(flag)

    def test_differing_run_counts_rejected(self):
        records = correctness_records("m1", "c", [[1, 1], [1, 1]])
        records.append(rec(window=2, model="m1", config="c", run=0))
        with pytest.raises(ValueError, match="differing run counts"):
            merge_runs(table_of(records), 3, "majority")

    @pytest.mark.parametrize("window", [-1, 3])
    def test_window_ids_outside_the_dataset_rejected(self, window):
        records = correctness_records("m1", "c", [[1, 1, 1]])
        records.append(rec(window=window, model="m1", config="c", run=0))
        with pytest.raises(ValueError, match="log covers 4 windows but the dataset defines 3 "
                                             "dense window ids"):
            merge_runs(table_of(records), 3, "majority")

    def test_multiple_configs_rejected(self):
        records = correctness_records("m1", "A", [[1]])
        records += correctness_records("m1", "B", [[1]])
        with pytest.raises(ValueError, match="filter"):
            merge_runs(table_of(records), 1, "majority")

    def test_policy_monotonicity_property(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n_runs = int(rng.integers(1, 6))
            n_windows = int(rng.integers(1, 30))
            flags = rng.integers(0, 2, size=(n_runs, n_windows))
            records = correctness_records("m1", "c", flags.tolist())
            sets = {}
            for policy in ("all", "majority", "any"):
                sets[policy] = {w for w, good in merged(records, policy).items() if good}
            assert sets["all"] <= sets["majority"] <= sets["any"]

    def test_order_independence(self):
        rng = np.random.default_rng(5)
        records = correctness_records("m1", "c", rng.integers(0, 2, (4, 20)).tolist())
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert merged(records) == merged(shuffled)


def run_metrics(y_true, y_pred, num_classes):
    """model_metrics of one run whose records predict ``y_pred`` for labels ``y_true``."""
    one_hot = np.eye(num_classes)
    table = table_of(dict(window=w, label=t, probs=one_hot[p])
                     for w, (t, p) in enumerate(zip(y_true, y_pred)))
    return model_metrics(table)[("d", "m1", "c1")]


def accuracy(y_true, y_pred):
    return run_metrics(y_true, y_pred, max(max(y_true), max(y_pred)) + 1).accuracy_mean


def weighted_f1(y_true, y_pred, num_classes):
    return run_metrics(y_true, y_pred, num_classes).weighted_f1_mean


def weighted_f1_oracle(y_true, y_pred, num_classes):
    """Weighted F1 from a confusion matrix: per-class precision and recall,
    F1 = 2PR/(P+R) (0 where P+R is 0), averaged with support as the weight."""
    cm = np.zeros((num_classes, num_classes))
    np.add.at(cm, (np.asarray(y_true), np.asarray(y_pred)), 1)
    tp, predicted, support = np.diag(cm), cm.sum(axis=0), cm.sum(axis=1)
    zeros = np.zeros(num_classes)
    precision = np.divide(tp, predicted, out=zeros.copy(), where=predicted > 0)
    recall = np.divide(tp, support, out=zeros.copy(), where=support > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=zeros.copy(), where=pr > 0)
    return float((f1 * support).sum() / support.sum())


# The y_true and y_pred rows test_weighted_f1_matches_sklearn draws.
SEEDED = np.random.default_rng(9).integers(0, 4, size=(2, 200))


class TestMetrics:
    def test_accuracy(self):
        assert accuracy([0, 1, 2, 2], [0, 1, 1, 2]) == 0.75

    @pytest.mark.parametrize(
        "y_true, y_pred, num_classes, expected",
        [
            (SEEDED[0], SEEDED[1], 4, None),
            # Class 1 has support but no predictions: its F1 is 0.
            ([0, 0, 1, 1], [0, 0, 0, 0], 2, 0.5 * 2 / 3),
            # Class 2 is predicted but has no support: its weight is 0.
            ([0, 0, 1, 1], [0, 2, 1, 1], 3, 0.5 * 2 / 3 + 0.5),
            ([0, 1, 2, 2], [0, 1, 2, 2], 3, 1.0),
        ],
        ids=["seeded", "unpredicted_class", "unsupported_class", "all_correct"],
    )
    def test_weighted_f1_matches_confusion_matrix_oracle(
        self, y_true, y_pred, num_classes, expected
    ):
        ours = weighted_f1(y_true, y_pred, num_classes)
        assert abs(ours - weighted_f1_oracle(y_true, y_pred, num_classes)) < 1e-12
        if expected is not None:
            assert abs(ours - expected) < 1e-12

    def test_weighted_f1_matches_sklearn(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(9)
        y_true = rng.integers(0, 4, size=200)
        y_pred = rng.integers(0, 4, size=200)
        ours = weighted_f1(y_true, y_pred, 4)
        ref = sklearn_metrics.f1_score(y_true, y_pred, average="weighted")
        assert abs(ours - ref) < 1e-12

    def test_model_metrics_mean_and_std_over_runs(self):
        records = correctness_records("m1", "c", [[1, 1, 1, 1], [1, 1, 0, 0]])
        metrics = model_metrics(table_of(records))[("d", "m1", "c")]
        assert metrics.accuracy_mean == 0.75
        assert metrics.accuracy_std == 0.25
        assert metrics.num_runs == 2
