import io
import json

import pytest

from haraudit.splits import Fold, FoldPlan, group_k_fold, read_plan, write_plan


def equal_groups(n_groups, windows_per_group):
    groups = {}
    next_id = 0
    for g in range(n_groups):
        groups[f"g{g:02d}"] = list(range(next_id, next_id + windows_per_group))
        next_id += windows_per_group
    return groups


def test_one_fold_per_group_when_under_cap():
    plan = group_k_fold(equal_groups(8, 5), max_k=10)
    assert plan.k == 8
    assert all(len(f.test_group_keys) == 1 for f in plan.folds)


def test_two_groups_minimum_case():
    plan = group_k_fold(equal_groups(2, 3), max_k=10)
    assert plan.k == 2


def test_fewer_than_two_groups_rejected():
    with pytest.raises(ValueError):
        group_k_fold(equal_groups(1, 5), max_k=10)


def test_24_equal_groups_merge_to_expected_fold_sizes():
    plan = group_k_fold(equal_groups(24, 7), max_k=10)
    assert plan.k == 10
    sizes = sorted(len(f.test_group_keys) for f in plan.folds)
    assert sizes == [2, 2, 2, 2, 2, 2, 3, 3, 3, 3]


def test_merging_balances_window_counts():
    groups = equal_groups(15, 1)
    # give a few groups much more weight; the greedy should spread them out
    groups["g00"] = list(range(100, 150))
    groups["g01"] = list(range(150, 200))
    plan = group_k_fold(groups, max_k=4)
    totals = [len(f.test_window_ids) for f in plan.folds]
    assert max(totals) - min(totals) <= 50


def test_partition_invariants():
    groups = equal_groups(24, 3)
    plan = group_k_fold(groups, max_k=10)
    all_windows = [w for f in plan.folds for w in f.test_window_ids]
    assert sorted(all_windows) == sorted(w for ws in groups.values() for w in ws)
    all_groups = [g for f in plan.folds for g in f.test_group_keys]
    assert sorted(all_groups) == sorted(groups)


def test_deterministic_under_mapping_order():
    groups = equal_groups(13, 4)
    shuffled = dict(sorted(groups.items(), key=lambda kv: hash(kv[0])))
    a = group_k_fold(groups, max_k=5)
    b = group_k_fold(shuffled, max_k=5)
    assert [f.test_group_keys for f in a.folds] == [f.test_group_keys for f in b.folds]


def test_plan_round_trips_through_json():
    plan = group_k_fold(equal_groups(12, 2), max_k=5)
    buf = io.StringIO()
    write_plan(plan, buf)
    buf.seek(0)
    back = read_plan(buf)
    assert back.k == plan.k
    assert [f.test_window_ids for f in back.folds] == [
        f.test_window_ids for f in plan.folds
    ]


def written_plan(n_groups):
    """The splits.json payload of a plan with one fold per group."""
    buf = io.StringIO()
    write_plan(group_k_fold(equal_groups(n_groups, 2), max_k=5), buf)
    return json.loads(buf.getvalue())


def test_a_plan_whose_k_differs_from_its_fold_count_is_refused():
    payload = written_plan(3)
    payload["k"] = 4
    with pytest.raises(ValueError, match="splits.json gives k=4 but lists 3 folds"):
        read_plan(io.StringIO(json.dumps(payload)))


@pytest.mark.parametrize("fold_ids, message", [
    ([1, 0], "splits.json lists fold_id 1 at position 0"),  # swapped
    ([0, 0], "splits.json lists fold_id 0 at position 1"),  # duplicate
])
def test_a_plan_whose_fold_ids_are_not_their_positions_is_refused(fold_ids, message):
    payload = written_plan(2)
    for fold, fold_id in zip(payload["folds"], fold_ids):
        fold["fold_id"] = fold_id
    with pytest.raises(ValueError, match=message):
        read_plan(io.StringIO(json.dumps(payload)))


@pytest.mark.parametrize("second, message", [
    (Fold(("g0",), (2,)), "group 'g0' appears in two folds"),
    (Fold(("g1",), (1,)), "window 1 appears in two test folds"),
])
def test_a_plan_with_a_group_or_window_in_two_folds_is_refused(second, message):
    with pytest.raises(ValueError, match=message):
        FoldPlan([Fold(("g0",), (0, 1)), second])
