"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Thresholds marked "validated empirically" were pinned by running
the shipped default scenario once and recording comfortable margins.
"""

import io
import time

import numpy as np
import pytest

from haraudit.cli import main as cli_main
from haraudit.baseline import TrainConfig, loss_and_gradients
from haraudit.confusion import confusion_table
from haraudit.ifc import CorrectnessMatrix, compute_ifc, run_lengths
from haraudit.mask import CLEAN, MAJOR, MINOR, build_mask
from haraudit.mask import write_sample_mask_csv, write_window_mask_csv
from haraudit.pipeline import audit_records, baseline_prediction_records
from haraudit.predictions import read_records, write_records
from haraudit.splits import group_k_fold, plan_folds
from haraudit.synth import default_scenario, generate_corpus
from haraudit.windowing import WindowConfig, slice_corpus
from prediction_rows import assert_same_table, fused_of, table_of
from test_mask import categories, read_sample_mask_csv, read_window_mask_csv


def report(criterion: str, detail: str = "") -> None:
    print(f"[PASS] {criterion}" + (f" — {detail}" if detail else ""))


def matrix_from_percentages(singles_pct, cg_pct, n_windows=10_000):
    """Correctness matrix realizing given single-contribution and
    common-ground percentages exactly (counts must divide n_windows/100)."""
    single_counts = [round(s * n_windows / 100) for s in singles_pct]
    cg_count = round(cg_pct * n_windows / 100)
    n_models = len(singles_pct)
    values = np.zeros((n_models, n_windows), dtype=bool)
    values[:, :cg_count] = True  # every model correct -> common ground
    pos = cg_count
    for m, count in enumerate(single_counts):
        values[m, pos : pos + count] = True
        pos += count
    assert pos <= n_windows
    return CorrectnessMatrix(
        model_ids=tuple(f"m{i}" for i in range(n_models)),
        values=values,
    )


def rle_oracle(flags):
    segments = []
    start = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            segments.append((start, i - start))
            start = None
    if start is not None:
        segments.append((start, len(flags) - start))
    bins = {}
    for _, length in segments:
        k = length.bit_length() - 1
        bins[k] = bins.get(k, 0) + 1
    top = max(bins) if bins else -1
    return segments, [(2**k, 2 ** (k + 1) - 1, bins.get(k, 0)) for k in range(top + 1)]


def test_c01_closure_property_on_random_matrices():
    rng = np.random.default_rng(20240817)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        n_models = int(rng.integers(1, 9))
        n_windows = int(rng.integers(1, 5001))
        matrix = CorrectnessMatrix(
            model_ids=tuple(f"m{i}" for i in range(n_models)),
            values=rng.integers(0, 2, size=(n_models, n_windows)).astype(bool),
        )
        s = compute_ifc(matrix)
        gap = abs(
            s.common_ground + sum(s.single_contribution.values()) + s.ifc - 100.0
        )
        worst = max(worst, gap)
        assert gap <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("C1 closure on 1000 random matrices",
           f"worst gap {worst:.2e}, {elapsed:.2f}s")


PUBLISHED_OVERLAP_ROWS = {
    "PAMAP2": ([0.72, 1.42, 0.76, 0.96, 3.04, 0.59], 80.77, 11.74),
    "Oppo-Loco": ([0.60, 0.78, 0.78, 0.64, 1.79, 1.25], 88.85, 5.31),
    "MM-FIT": ([0.06, 0.13, 0.10, 0.05, 0.19, 0.06], 98.97, 0.44),
}


@pytest.mark.parametrize("name", sorted(PUBLISHED_OVERLAP_ROWS))
def test_c02_published_row_reconstruction(name):
    singles, cg, expected_ifc = PUBLISHED_OVERLAP_ROWS[name]
    summary = compute_ifc(matrix_from_percentages(singles, cg))
    assert abs(summary.ifc - expected_ifc) <= 0.01
    assert abs(summary.common_ground - cg) <= 1e-9
    for m, single in enumerate(singles):
        assert abs(summary.single_contribution[f"m{m}"] - single) <= 1e-9
    report(f"C2 {name} reconstruction", f"IFC {summary.ifc:.2f}")


def test_c03_clean_share_complements_ifc():
    singles, cg, expected_ifc = PUBLISHED_OVERLAP_ROWS["PAMAP2"]
    summary = compute_ifc(matrix_from_percentages(singles, cg))
    n = summary.ifc_flags.size
    bounds = np.array([[i * 100, i * 100 + 200] for i in range(n)])
    rng = np.random.default_rng(3)
    flagged = np.flatnonzero(summary.ifc_flags)
    fused = fused_of(flagged, rng.dirichlet(np.ones(4), size=flagged.size))
    mask = build_mask(summary.ifc_flags, fused, bounds, n * 100 + 100)
    clean = mask.distribution["clean_pct"]
    assert abs(clean - (100.0 - summary.ifc)) <= 1e-9
    assert abs(clean - 88.26) <= 0.01
    total = sum(mask.distribution.values())
    assert abs(total - 100.0) <= 1e-9
    report("C3 clean share complements IFC", f"clean {clean:.2f}")


def test_c04_mask_rule_unit_suite():
    assert categories([[0.7, 0.2, 0.1], [0.4, 0.35, 0.25]]).tolist() == [MAJOR, MINOR]
    assert categories([[0.5, 0.3, 0.2]], [False]).tolist() == [CLEAN]
    rng = np.random.default_rng(12)
    assert (categories(rng.dirichlet(np.ones(2), size=50)) == MAJOR).all()
    report("C4 gap-rule unit suite", "major/minor/clean + 2-class degenerate")


def test_c05_run_length_oracle_on_10000_vectors():
    rng = np.random.default_rng(5150)
    for i in range(10_000):
        n = int(rng.integers(0, 2000)) if i % 100 == 0 else int(rng.integers(0, 64))
        flags = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(bool)
        hist = run_lengths(flags)
        seg_expected, bins_expected = rle_oracle(flags.tolist())
        assert [(s.start_window, s.length) for s in hist.segments] == seg_expected
        assert hist.bins == bins_expected
    report("C5 run-length oracle", "10000 random vectors, exact match")


def test_c06_confusion_self_consistency():
    rng = np.random.default_rng(60)
    labels = rng.integers(0, 6, size=5000)
    flags = rng.random(5000) < 0.1
    rows = confusion_table(flags, labels, num_classes=6)
    for row in rows:
        if row.rel_pct is not None:
            assert row.abs_pct == row.dist_pct * row.rel_pct / 100.0
    total_abs = sum(r.abs_pct or 0.0 for r in rows)
    assert abs(total_abs - 100.0 * flags.mean()) <= 1e-9
    # published MotionSense "Upstairs" row: dist 10.77, rel 2.109, abs 0.229;
    # the product reproduces the printed absolute value within its rounding
    assert abs(10.77 * 2.109 / 100.0 - 0.229) <= 0.002
    report("C6 confusion self-consistency", "abs = dist*rel, sums close")


def test_c07_gradient_check_on_20_instances():
    rng = np.random.default_rng(777)
    h = 1e-5
    for _ in range(20):
        c, f = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        n = int(rng.integers(c, c + 8))
        features = rng.normal(size=(n, f))
        labels = rng.integers(0, c, size=n)
        labels[:c] = np.arange(c)
        weights = rng.normal(scale=0.5, size=(c, f))
        bias = rng.normal(scale=0.5, size=c)
        _, grad_w, grad_b = loss_and_gradients(weights, bias, features, labels)
        fd_w = np.zeros_like(weights)
        for idx in np.ndindex(*weights.shape):
            bumped = weights.copy()
            bumped[idx] += h
            up, _, _ = loss_and_gradients(bumped, bias, features, labels)
            bumped[idx] -= 2 * h
            down, _, _ = loss_and_gradients(bumped, bias, features, labels)
            fd_w[idx] = (up - down) / (2 * h)
        fd_b = np.zeros_like(bias)
        for j in range(c):
            bumped = bias.copy()
            bumped[j] += h
            up, _, _ = loss_and_gradients(weights, bumped, features, labels)
            bumped[j] -= 2 * h
            down, _, _ = loss_and_gradients(weights, bumped, features, labels)
            fd_b[j] = (up - down) / (2 * h)
        scale = max(np.abs(fd_w).max(), np.abs(fd_b).max(), 1e-12)
        assert np.abs(grad_w - fd_w).max() / scale < 1e-6
        assert np.abs(grad_b - fd_b).max() / scale < 1e-6
    report("C7 gradient check", "20 instances, central differences, rel 1e-6")


def test_c08_end_to_end_synthetic_recovery():
    start = time.monotonic()
    spec = default_scenario()
    assert spec.num_classes == 3 and spec.num_channels == 2 and spec.seed == 42
    kinds = sorted(i.kind for i in spec.injections)
    assert kinds == ["transient_irregularity", "transition_shift"]

    recordings, annotations = generate_corpus(spec, num_subjects=4)
    dataset = slice_corpus(recordings, WindowConfig(200, 100))
    plan = plan_folds(dataset.windows, max_k=10)
    records = baseline_prediction_records(
        dataset, plan, dataset_id="synthetic", config=TrainConfig(runs=4)
    )
    result = audit_records(
        records,
        dataset.windows.bounds,
        dataset.windows.label,
        dataset.total_samples,
        num_classes=dataset.num_classes,
        merge_policy="majority",
    )

    bounds = dataset.windows.bounds

    def overlapping(span):
        return [
            w
            for w in range(dataset.num_windows)
            if bounds[w, 0] < span.end_sample and bounds[w, 1] > span.start_sample
        ]

    spans = annotations[0]  # the injected subject comes first, offset 0
    flags = result.ifc.ifc_flags
    window_mask = result.mask.window_mask

    transient = next(s for s in spans if s.kind == "transient_irregularity")
    transient_windows = overlapping(transient)
    transient_flagged = [w for w in transient_windows if flags[w]]
    flagged_share = len(transient_flagged) / len(transient_windows)
    assert flagged_share >= 0.80  # validated empirically: 9/9 at seed 42

    injected = sorted({w for span in spans for w in overlapping(span)})
    injected_flagged = [w for w in injected if flags[w]]
    assert injected_flagged
    categorized = [w for w in injected_flagged if window_mask[w] in (MINOR, MAJOR)]
    assert len(categorized) / len(injected_flagged) >= 0.60

    majors = sum(1 for w in transient_flagged if window_mask[w] == MAJOR)
    minors = sum(1 for w in transient_flagged if window_mask[w] == MINOR)
    assert majors > minors  # validated empirically: 7 major vs 2 minor at seed 42

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(
        "C8 synthetic recovery",
        f"transient {100 * flagged_share:.0f}% flagged, "
        f"{majors} major vs {minors} minor, {elapsed:.1f}s",
    )


def test_c09_split_invariants_for_24_groups():
    groups = {}
    next_window = 0
    rng = np.random.default_rng(9)
    for g in range(24):
        count = int(rng.integers(20, 60))
        groups[f"subject{g:02d}"] = list(range(next_window, next_window + count))
        next_window += count
    plan = group_k_fold(groups, max_k=10)
    assert plan.k == 10
    seen = [w for f in plan.folds for w in f.test_window_ids]
    assert sorted(seen) == list(range(next_window))  # each window exactly once
    fold_of_group = {}
    for i, fold in enumerate(plan.folds):
        for g in fold.test_group_keys:
            assert g not in fold_of_group
            fold_of_group[g] = i
    assert len(fold_of_group) == 24
    report("C9 split invariants", f"{plan.k} folds over 24 groups")


def test_c10_round_trips_and_reproducibility(tmp_path):
    # prediction-log JSONL round trip is exact
    rng = np.random.default_rng(10)
    records = table_of(
        dict(run=r, window=w, label=int(rng.integers(0, 3)),
             probs=tuple(rng.dirichlet(np.ones(3))))
        for r in range(2)
        for w in range(40)
    )
    buf = io.StringIO()
    write_records(records, buf)
    buf.seek(0)
    assert_same_table(read_records(buf), records)

    # mask CSV round trip is exact
    bounds = np.array([[i * 100, i * 100 + 200] for i in range(30)])
    flags = rng.random(30) < 0.4
    flagged = np.flatnonzero(flags)
    mask = build_mask(flags, fused_of(flagged, rng.dirichlet(np.ones(3), size=flagged.size)),
                      bounds, 3100)
    wbuf, sbuf = io.StringIO(), io.StringIO()
    write_window_mask_csv(mask, bounds, wbuf)
    write_sample_mask_csv(mask, sbuf)
    wbuf.seek(0), sbuf.seek(0)
    categories, bounds_back = read_window_mask_csv(wbuf)
    assert np.array_equal(categories, mask.window_mask)
    assert np.array_equal(bounds_back, bounds)
    assert np.array_equal(read_sample_mask_csv(sbuf), mask.sample_mask)

    # identical seeds give byte-identical artifacts through the CLI
    sequence = [
        ["synth", "--subjects", "2"],
        ["windows"],
        ["split"],
        ["train-baseline"],
        ["ifc"],
        ["mask"],
    ]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        for argv in sequence:
            assert cli_main(argv + ["--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    report("C10 round trips", f"{len(names)} artifacts byte-identical across reruns")
