"""Per-window class-probability records: ingestion, validation, consolidation.

One record is one model's probability vector for one window in one training
run, taken from the fold where that window was held out. The JSONL wire
format is one object per line:

    {"dataset": "...", "model": "...", "config": "...", "run": 0,
     "fold": 0, "window": 123, "label": 4, "probs": [...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._io import open_text

SIMPLEX_TOL = 1e-6
MERGE_POLICIES = ("any", "majority", "all")


class RecordError(ValueError):
    """Invalid prediction record; carries the 0-based record index."""

    def __init__(self, message: str, index: int | None = None):
        if index is not None:
            message = f"record {index}: {message}"
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class PredictionRecord:
    dataset_id: str
    model_id: str
    config_id: str
    run_id: int
    fold_id: int
    window_id: int
    true_label: int
    probs: tuple[float, ...]

    @property
    def key(self) -> tuple[str, str, str, int, int]:
        return (self.dataset_id, self.model_id, self.config_id, self.run_id, self.window_id)


def is_correct(record: PredictionRecord) -> bool:
    """Argmax correctness; probability ties resolve to the lowest class index."""
    return int(np.argmax(record.probs)) == record.true_label


def validate_records(
    records: Sequence[PredictionRecord],
    valid_window_ids: Iterable[int] | None = None,
    num_classes: int | None = None,
) -> None:
    """Check simplex, class-count, uniqueness, and window-id constraints.

    Raises RecordError naming the first offending record. ``valid_window_ids``
    enables the unknown-window check; ``num_classes`` pins the expected
    probability length (otherwise each dataset's first record sets it).
    """
    valid = set(valid_window_ids) if valid_window_ids is not None else None
    expected_len: dict[str, int] = {}
    seen: set[tuple[str, str, str, int, int]] = set()
    for i, rec in enumerate(records):
        probs = np.asarray(rec.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise RecordError("probs must hold at least two classes", i)
        if (probs < 0).any():
            raise RecordError("negative probability", i)
        if abs(float(probs.sum()) - 1.0) > SIMPLEX_TOL:
            raise RecordError(f"probabilities sum to {probs.sum():.8f}, not 1", i)
        want = num_classes if num_classes is not None else expected_len.setdefault(
            rec.dataset_id, probs.size
        )
        if probs.size != want:
            raise RecordError(f"expected {want} classes, found {probs.size}", i)
        if not 0 <= rec.true_label < probs.size:
            raise RecordError(f"label {rec.true_label} outside class range", i)
        if rec.key in seen:
            raise RecordError(
                f"duplicate (model, config, run, window) key {rec.key}", i
            )
        seen.add(rec.key)
        if valid is not None and rec.window_id not in valid:
            raise RecordError(f"unknown window_id {rec.window_id}", i)


def read_records(
    src,
    valid_window_ids: Iterable[int] | None = None,
    num_classes: int | None = None,
) -> list[PredictionRecord]:
    """Read and validate a JSONL prediction log."""
    records = []
    with open_text(src) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rec = PredictionRecord(
                    dataset_id=str(obj["dataset"]),
                    model_id=str(obj["model"]),
                    config_id=str(obj["config"]),
                    run_id=int(obj["run"]),
                    fold_id=int(obj["fold"]),
                    window_id=int(obj["window"]),
                    true_label=int(obj["label"]),
                    probs=tuple(float(p) for p in obj["probs"]),
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise RecordError(f"malformed record: {exc}", i) from None
            records.append(rec)
    validate_records(records, valid_window_ids, num_classes)
    return records


def write_records(records: Sequence[PredictionRecord], dest) -> None:
    """Write records as JSONL; float text is exact (shortest round-trip)."""
    with open_text(dest, "w") as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "dataset": rec.dataset_id,
                        "model": rec.model_id,
                        "config": rec.config_id,
                        "run": rec.run_id,
                        "fold": rec.fold_id,
                        "window": rec.window_id,
                        "label": rec.true_label,
                        "probs": list(rec.probs),
                    }
                )
            )
            fh.write("\n")


def best_hyperparams(
    records: Sequence[PredictionRecord],
) -> dict[tuple[str, str], str]:
    """Pick the config with the best mean out-of-fold accuracy per (dataset, model).

    Accuracy is pooled over all folds within a run and averaged across runs.
    Ties go to the lexicographically smallest config id. Every config must
    cover every fold seen for its (dataset, model); missing folds raise.
    """
    folds_seen: dict[tuple[str, str], set[int]] = {}
    by_config: dict[tuple[str, str, str], dict[int, list[bool]]] = {}
    config_folds: dict[tuple[str, str, str], set[int]] = {}
    for rec in records:
        folds_seen.setdefault((rec.dataset_id, rec.model_id), set()).add(rec.fold_id)
        key = (rec.dataset_id, rec.model_id, rec.config_id)
        by_config.setdefault(key, {}).setdefault(rec.run_id, []).append(is_correct(rec))
        config_folds.setdefault(key, set()).add(rec.fold_id)

    best: dict[tuple[str, str], str] = {}
    scores: dict[tuple[str, str], float] = {}
    for (dataset, model, config), runs in sorted(by_config.items()):
        expected = folds_seen[(dataset, model)]
        missing = sorted(expected - config_folds[(dataset, model, config)])
        if missing:
            raise ValueError(
                f"config {config!r} of ({dataset!r}, {model!r}) lacks folds {missing}"
            )
        mean_acc = float(
            np.mean([np.mean(flags) for _, flags in sorted(runs.items())])
        )
        slot = (dataset, model)
        # Configs iterate in ascending id order, so a strict > keeps the
        # lexicographically smallest config on ties.
        if slot not in best or mean_acc > scores[slot]:
            best[slot], scores[slot] = config, mean_acc
    return best


def filter_to_configs(
    records: Sequence[PredictionRecord], chosen: dict[tuple[str, str], str]
) -> list[PredictionRecord]:
    """Keep only records belonging to the chosen config of their (dataset, model)."""
    return [
        rec
        for rec in records
        if chosen.get((rec.dataset_id, rec.model_id)) == rec.config_id
    ]


@dataclass
class ConsolidatedCorrectness:
    """Run-merged correctness per (model, window) under one merge policy."""

    policy: str
    by_model: dict[str, dict[int, bool]]


def merge_runs(
    records: Sequence[PredictionRecord], policy: str = "majority"
) -> ConsolidatedCorrectness:
    """Collapse per-run correctness into one verdict per (model, window).

    ``any`` counts a window correct if any run got it right, ``majority``
    needs strictly more than half of the runs (an exact half is incorrect),
    ``all`` needs every run. Records must already be filtered to one config
    per model, and every window of a model must carry the same run count.
    """
    if policy not in MERGE_POLICIES:
        raise ValueError(f"unknown merge policy {policy!r}")
    per_model: dict[str, dict[int, dict[int, bool]]] = {}
    configs: dict[str, set[str]] = {}
    for rec in records:
        configs.setdefault(rec.model_id, set()).add(rec.config_id)
        per_model.setdefault(rec.model_id, {}).setdefault(rec.window_id, {})[
            rec.run_id
        ] = is_correct(rec)
    for model, cfgs in configs.items():
        if len(cfgs) > 1:
            raise ValueError(
                f"model {model!r} spans configs {sorted(cfgs)}; filter to the "
                "chosen config before merging runs"
            )
    by_model: dict[str, dict[int, bool]] = {}
    for model, windows in per_model.items():
        run_counts = {len(runs) for runs in windows.values()}
        if len(run_counts) != 1:
            raise ValueError(
                f"model {model!r} has differing run counts per window: "
                f"{sorted(run_counts)}"
            )
        n_runs = run_counts.pop()
        merged = {}
        for window_id, runs in windows.items():
            hits = sum(runs.values())
            if policy == "any":
                merged[window_id] = hits >= 1
            elif policy == "majority":
                merged[window_id] = hits * 2 > n_runs
            else:
                merged[window_id] = hits == n_runs
        by_model[model] = merged
    return ConsolidatedCorrectness(policy=policy, by_model=by_model)


def accuracy(y_true: Sequence[int], y_pred: Sequence[int]) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("no predictions")
    return float(np.mean(y_true == y_pred))


def weighted_f1(y_true: Sequence[int], y_pred: Sequence[int], num_classes: int) -> float:
    """F1 averaged over classes, weighted by true-class support.

    Classes without support contribute zero weight; a class with support but
    no predicted positives scores an F1 of 0.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("no predictions")
    total = y_true.size
    score = 0.0
    for c in range(num_classes):
        support = int((y_true == c).sum())
        if support == 0:
            continue
        tp = int(((y_true == c) & (y_pred == c)).sum())
        fp = int(((y_true != c) & (y_pred == c)).sum())
        fn = support - tp
        denom = 2 * tp + fp + fn
        f1 = (2 * tp / denom) if denom else 0.0
        score += (support / total) * f1
    return float(score)


@dataclass(frozen=True)
class ModelMetrics:
    accuracy_mean: float
    accuracy_std: float
    weighted_f1_mean: float
    weighted_f1_std: float
    num_runs: int


def model_metrics(
    records: Sequence[PredictionRecord],
) -> dict[tuple[str, str, str], ModelMetrics]:
    """Accuracy and weighted F1 as mean +/- std over runs, per (dataset, model, config)."""
    grouped: dict[tuple[str, str, str], dict[int, list[PredictionRecord]]] = {}
    for rec in records:
        grouped.setdefault(
            (rec.dataset_id, rec.model_id, rec.config_id), {}
        ).setdefault(rec.run_id, []).append(rec)
    out = {}
    for key, runs in grouped.items():
        num_classes = len(next(iter(runs.values()))[0].probs)
        accs, f1s = [], []
        for _, recs in sorted(runs.items()):
            y_true = [r.true_label for r in recs]
            y_pred = [int(np.argmax(r.probs)) for r in recs]
            accs.append(accuracy(y_true, y_pred))
            f1s.append(weighted_f1(y_true, y_pred, num_classes))
        out[key] = ModelMetrics(
            accuracy_mean=float(np.mean(accs)),
            accuracy_std=float(np.std(accs)),
            weighted_f1_mean=float(np.mean(f1s)),
            weighted_f1_std=float(np.std(f1s)),
            num_runs=len(accs),
        )
    return out
