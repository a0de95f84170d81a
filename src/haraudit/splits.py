"""Grouped cross-validation fold planning with a fold-count cap."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from ._io import open_text, write_json
from .windowing import WindowTable

MAX_FOLDS_DEFAULT = 10


@dataclass(frozen=True)
class Fold:
    test_group_keys: tuple[str, ...]
    test_window_ids: tuple[int, ...]


@dataclass
class FoldPlan:
    """Held-out test folds, one group set each and numbered by position; no group
    or window is in two folds."""

    folds: list[Fold]

    @property
    def k(self) -> int:
        return len(self.folds)

    def __post_init__(self) -> None:
        seen_windows: set[int] = set()
        seen_groups: set[str] = set()
        for fold in self.folds:
            for g in fold.test_group_keys:
                if g in seen_groups:
                    raise ValueError(f"group {g!r} appears in two folds")
                seen_groups.add(g)
            for w in fold.test_window_ids:
                if w in seen_windows:
                    raise ValueError(f"window {w} appears in two test folds")
                seen_windows.add(w)

    def train_windows(self, position: int, num_windows: int) -> list[int]:
        held_out = set(self.folds[position].test_window_ids)
        return [w for w in range(num_windows) if w not in held_out]


def group_k_fold(
    group_windows: Mapping[str, Sequence[int]], max_k: int = MAX_FOLDS_DEFAULT
) -> FoldPlan:
    """Build a leave-groups-out fold plan capped at ``max_k`` folds.

    With at most ``max_k`` groups every group gets its own fold. With more,
    groups are merged: sorted by descending window count (ties by key), each
    group joins the currently smallest fold. Deterministic for a given set of
    groups and counts regardless of mapping order.
    """
    if len(group_windows) < 2:
        raise ValueError("need at least 2 groups for a leave-out split")
    if max_k < 2:
        raise ValueError("max_k must be at least 2")
    if len(group_windows) <= max_k:
        bins = [[key] for key in sorted(group_windows)]
    else:
        bins = [[] for _ in range(max_k)]
        sizes = [0] * max_k
        for key, wins in sorted(group_windows.items(), key=lambda kv: (-len(kv[1]), kv[0])):
            target = min(range(max_k), key=lambda i: (sizes[i], i))
            bins[target].append(key)
            sizes[target] += len(wins)
    folds = [
        Fold(
            test_group_keys=tuple(sorted(keys)),
            test_window_ids=tuple(sorted(int(w) for key in keys for w in group_windows[key])),
        )
        for keys in bins
    ]
    return FoldPlan(folds=folds)


def plan_folds(windows: WindowTable, max_k: int = MAX_FOLDS_DEFAULT) -> FoldPlan:
    """Fold plan for a window table, grouping by each window's group key."""
    groups: dict[str, list[int]] = {}
    for window_id, key in enumerate(windows.group.tolist()):
        groups.setdefault(key, []).append(window_id)
    return group_k_fold(groups, max_k=max_k)


def write_plan(plan: FoldPlan, dest) -> None:
    payload = {
        "k": plan.k,
        "folds": [
            {
                "fold_id": i,
                "groups": list(f.test_group_keys),
                "test_windows": list(f.test_window_ids),
            }
            for i, f in enumerate(plan.folds)
        ],
    }
    write_json(payload, dest)


def read_plan(src) -> FoldPlan:
    with open_text(src) as fh:
        payload = json.load(fh)
    folds = payload["folds"]
    if payload["k"] != len(folds):
        raise ValueError(f"splits.json gives k={payload['k']} but lists {len(folds)} folds")
    for i, f in enumerate(folds):
        if f["fold_id"] != i:
            raise ValueError(f"splits.json lists fold_id {f['fold_id']} at position {i}")
    return FoldPlan([Fold(tuple(f["groups"]), tuple(int(w) for w in f["test_windows"]))
                     for f in folds])
