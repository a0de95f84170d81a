import numpy as np
import pytest

from haraudit import windowing
from haraudit.baseline import (
    TrainConfig, extract_feature_matrix, predict_proba, train_baseline,
)
from haraudit.confusion import chord_edges, confusion_table
from haraudit.pipeline import audit_records, baseline_prediction_records
from haraudit.predictions import RecordError, merge_runs
from haraudit.recordings import SensorRecording
from haraudit.splits import plan_folds
from haraudit.synth import Injection, ScenarioSpec, generate_corpus
from haraudit.windowing import WindowConfig, fit_normalizer, slice_corpus
from prediction_rows import concat, table_of
from traced_memory import peak_bytes


@pytest.fixture(scope="module")
def small_audit():
    spec = ScenarioSpec(
        num_classes=3,
        num_channels=2,
        samples_per_segment=1000,
        num_segments=6,
        noise_std=0.4,
        seed=7,
    )
    recordings, _ = generate_corpus(spec, num_subjects=3)
    ds = slice_corpus(recordings, WindowConfig(200, 100))
    plan = plan_folds(ds.windows)
    return ds, plan


def test_every_window_predicted_once_per_run(small_audit):
    ds, plan = small_audit
    records = baseline_prediction_records(ds, plan, config=TrainConfig(runs=2))
    for run in (0, 1):
        windows = sorted(records.window[records.run == run].tolist())
        assert windows == list(range(ds.num_windows))


def test_predictions_come_from_the_held_out_fold(small_audit):
    ds, plan = small_audit
    records = baseline_prediction_records(ds, plan)
    test_fold = {
        w: i for i, f in enumerate(plan.folds) for w in f.test_window_ids
    }
    assert records.fold.tolist() == [test_fold[w] for w in records.window.tolist()]


def test_runs_are_identical_under_deterministic_training(small_audit):
    ds, plan = small_audit
    records = baseline_prediction_records(ds, plan, config=TrainConfig(runs=2))
    run0, run1 = records.take(records.run == 0), records.take(records.run == 1)
    assert np.array_equal(run0.window, run1.window)
    assert np.array_equal(run0.probs, run1.probs)


def offset_dataset(subjects, windows_per_subject, channels, size, seed=4):
    """Random windows far from zero, one recording per subject, with classes
    0..2 taking turns window by window so every training split holds each."""
    rng = np.random.default_rng(seed)
    recordings = []
    for s in range(subjects):
        labels = np.repeat(np.arange(windows_per_subject) % 3, size)
        data = (rng.normal(size=(labels.size, channels)) + labels[:, None]
                + 1e4 * rng.normal(size=channels))
        recordings.append(SensorRecording(
            channels=data, labels=labels, subject_id=f"s{s}", session_id="r1",
            channel_names=[f"c{c}" for c in range(channels)]))
    return slice_corpus(recordings, WindowConfig(size, size))


def one_shot_probs(ds, plan):
    """Out-of-fold probabilities with each fold's features taken from the
    whole normalized corpus at once."""
    probs = []
    for i, fold in enumerate(plan.folds):
        test_ids = np.asarray(fold.test_window_ids, dtype=int)
        train_ids = np.asarray(plan.train_windows(i, ds.num_windows), dtype=int)
        blocks = ds.gather(np.arange(ds.num_windows))
        features = extract_feature_matrix(fit_normalizer(ds, train_ids).normalize(blocks))
        model = train_baseline(features[train_ids], ds.windows.label[train_ids],
                               ds.num_classes)
        probs.append(predict_proba(model, features[test_ids]))
    return np.concatenate(probs)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("chunk", ["one", "windows-1", "windows", "windows+1"])
def test_streamed_features_give_the_one_shot_probabilities(monkeypatch, channels, chunk):
    ds = offset_dataset(3, 6, channels, size=10)
    windows = ds.num_windows
    per_chunk = {"one": 1, "windows-1": windows - 1, "windows": windows,
                 "windows+1": windows + 1}[chunk]
    window_bytes = ds.gather(np.arange(ds.num_windows))[0].nbytes
    monkeypatch.setattr(windowing, "CHUNK_BYTES", per_chunk * window_bytes)
    plan = plan_folds(ds.windows)
    records = baseline_prediction_records(ds, plan)
    expected = one_shot_probs(ds, plan)
    assert np.array_equal(records.probs.view(np.int64), expected.view(np.int64))


def test_baseline_memory_stays_below_the_blocks():
    ds = offset_dataset(4, 45, 16, size=200)  # 180 windows of 25.6 kB: over 4 chunks
    block_bytes = ds.num_windows * ds.window_size * ds.num_channels * 8
    assert block_bytes >= 4 * windowing.CHUNK_BYTES
    plan = plan_folds(ds.windows)
    _, peak = peak_bytes(lambda: baseline_prediction_records(ds, plan))
    assert peak <= 0.75 * block_bytes, peak / block_bytes


def all_correct_records(n_windows, n_models=2):
    return table_of(
        dict(model=f"m{m}", window=w, label=w % 3, probs=np.eye(3)[w % 3])
        for m in range(n_models)
        for w in range(n_windows)
    )


def test_all_correct_log_audits_to_zero_ifc():
    n = 30
    bounds = np.array([[i * 100, i * 100 + 200] for i in range(n)])
    labels = np.array([w % 3 for w in range(n)])
    result = audit_records(
        all_correct_records(n), bounds, labels, n * 100 + 100, num_classes=3
    )
    assert result.ifc.ifc == 0.0
    assert result.ifc.common_ground == 100.0
    assert result.mask.distribution["clean_pct"] == 100.0
    assert len(result.fused) == 0 and chord_edges(result.fused) == []


def test_partial_window_coverage_rejected():
    records = all_correct_records(10)
    bounds = np.array([[i * 100, i * 100 + 200] for i in range(20)])
    labels = np.arange(20) % 3  # the log's own labels, so only coverage fails
    with pytest.raises(ValueError, match="dense window ids"):
        audit_records(records, bounds, labels, 2100, num_classes=3)


def test_class_count_must_match_the_dataset():
    n = 30
    bounds = np.array([[i * 100, i * 100 + 200] for i in range(n)])
    labels = np.arange(n) % 3
    with pytest.raises(ValueError, match="log holds 3 classes but the dataset defines 4"):
        audit_records(all_correct_records(n), bounds, labels, n * 100 + 100, num_classes=4)


def test_record_labels_must_match_the_window_table():
    n = 30
    bounds = np.array([[i * 100, i * 100 + 200] for i in range(n)])
    labels = np.arange(n) % 3
    # m0's config c1 covers folds 0 and 1 and its config c2 only fold 0, so
    # config choice would fail; the label check comes before it.
    records = concat(all_correct_records(n), table_of(
        dict(model="m0", config="c2", window=w, label=w % 3, probs=np.eye(3)[w % 3])
        for w in range(n)
    ))
    records.fold[:n] = np.arange(n) % 2
    records.label[2 * n + 7] = 2
    with pytest.raises(RecordError, match="record 67: label 2 differs from window 7's label 1"):
        audit_records(records, bounds, labels, n * 100 + 100, num_classes=3)
    records.label[2 * n + 7] = 1
    with pytest.raises(ValueError, match="lacks folds"):
        audit_records(records, bounds, labels, n * 100 + 100, num_classes=3)


def test_composite_overlap_windows_land_in_the_intersect():
    spec = ScenarioSpec(
        injections=[Injection(kind="composite_overlap", location=2400, extent=1000)],
        seed=42,
    )
    recordings, annotations = generate_corpus(spec, num_subjects=4)
    ds = slice_corpus(recordings, WindowConfig(200, 100))
    records = baseline_prediction_records(ds, plan_folds(ds.windows))
    result = audit_records(
        records, ds.windows.bounds, ds.windows.label, ds.total_samples,
        num_classes=ds.num_classes,
    )
    span = annotations[0][0]
    bounds = ds.windows.bounds
    hits = [
        w
        for w in range(ds.num_windows)
        if bounds[w, 0] < span.end_sample and bounds[w, 1] > span.start_sample
    ]
    flagged = [w for w in hits if result.ifc.ifc_flags[w]]
    assert len(flagged) / len(hits) > 0.5  # observed 11/11 at seed 42


def test_merge_policy_monotonicity_propagates_to_ifc():
    from haraudit.ifc import compute_ifc

    rng = np.random.default_rng(555)
    records = table_of(
        dict(model=model, run=run, window=w,
             probs=(0.8, 0.2) if rng.random() < 0.6 else (0.2, 0.8))
        for model in ("m0", "m1", "m2")
        for run in range(4)
        for w in range(80)
    )
    ifc_by_policy = {
        policy: compute_ifc(merge_runs(records, 80, policy)).ifc
        for policy in ("any", "majority", "all")
    }
    assert ifc_by_policy["all"] >= ifc_by_policy["majority"] >= ifc_by_policy["any"]


def test_clean_pct_complements_ifc(small_audit):
    ds, plan = small_audit
    records = baseline_prediction_records(ds, plan)
    result = audit_records(
        records, ds.windows.bounds, ds.windows.label, ds.total_samples,
        num_classes=ds.num_classes,
    )
    assert abs(result.mask.distribution["clean_pct"] - (100.0 - result.ifc.ifc)) <= 1e-9
    table = confusion_table(result.ifc.ifc_flags, ds.windows.label, ds.num_classes)
    total_abs = sum(r.abs_pct or 0.0 for r in table)
    assert abs(total_abs - result.ifc.ifc) <= 1e-9
    edges = chord_edges(result.fused)
    assert sum(weight for _, _, weight in edges) == int(result.ifc.ifc_flags.sum())
