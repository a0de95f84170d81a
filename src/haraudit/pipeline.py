"""End-to-end audit plumbing: fold-wise baseline training and log auditing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .baseline import TrainConfig, extract_feature_matrix, predict_proba, train_baseline
from .confusion import FusedTable, fuse_probabilities
from .ifc import IfcSummary, compute_ifc
from .mask import MaskSequence, build_mask
from .predictions import (
    ModelMetrics, PredictionTable, best_hyperparams, check_labels, filter_to_configs,
    merge_runs, model_metrics,
)
from .splits import FoldPlan
from .windowing import WindowedDataset, chunk_windows, fit_normalizer


def baseline_prediction_records(
    dataset: WindowedDataset,
    plan: FoldPlan,
    dataset_id: str = "dataset",
    config: TrainConfig = TrainConfig(),
) -> PredictionTable:
    """Train the reference classifier per fold and emit out-of-fold records.

    For each fold the normalizer is fit on the training windows only, and
    every window's features are taken from its normalized samples. Both
    steps gather the windows from the recordings in chunks of
    ``chunk_windows`` windows, so a fold holds one chunk of window samples,
    normalized in place, whatever the number of windows.
    Training is deterministic, so all ``config.runs`` runs carry identical
    probabilities; they exist to exercise the run-merging interfaces.
    """
    labels = dataset.windows.label
    features = np.empty((dataset.num_windows, 2 * dataset.num_channels))
    all_ids, chunk = np.arange(dataset.num_windows), chunk_windows(dataset)
    # One (run, fold, window ids, probs) block per fold and run, in record order.
    blocks = []
    for i, fold in enumerate(plan.folds):
        test_ids = np.asarray(fold.test_window_ids, dtype=int)
        train_ids = np.asarray(plan.train_windows(i, dataset.num_windows), dtype=int)
        stats = fit_normalizer(dataset, train_ids)
        # Each window's features reduce its own samples, so chunks give the
        # features of the whole normalized corpus bit for bit.
        for start, _, samples in dataset.chunks(all_ids, chunk):
            features[start:start + len(samples)] = extract_feature_matrix(
                stats.normalize(samples, out=samples))
        model = train_baseline(
            features[train_ids],
            labels[train_ids],
            dataset.num_classes,
            config,
        )
        probs = predict_proba(model, features[test_ids])
        for run in range(config.runs):
            blocks.append((np.full(test_ids.size, run), np.full(test_ids.size, i),
                           test_ids, probs))
    run, fold, window, probs = (np.concatenate(column) for column in zip(*blocks))
    return PredictionTable(
        dataset=dataset_id,
        model=np.zeros(window.size, dtype=np.int32), config=np.zeros(window.size, dtype=np.int32),
        run=run,
        fold=fold,
        window=window,
        label=labels[window],
        probs=probs,
        model_names=("baseline",), config_names=(f"gd_lr{config.step_size}_ep{config.epochs}",),
    )


@dataclass
class AuditResult:
    """Everything the downstream exports need, computed in one pass."""

    ifc: IfcSummary
    fused: FusedTable
    mask: MaskSequence
    chosen_configs: dict[tuple[str, str], str]
    #: ``model_metrics`` of the records of the chosen configs.
    metrics: dict[tuple[str, str, str], ModelMetrics]


def audit_records(
    records: PredictionTable,
    window_bounds: np.ndarray,
    labels: Sequence[int],
    total_samples: int,
    num_classes: int,
    merge_policy: str = "majority",
) -> AuditResult:
    """Run the full audit over a prediction log.

    Windows in the log must be positions 0..W-1 matching ``window_bounds``
    and ``labels``, the log must hold ``num_classes`` classes, and a record
    whose label is not its window's label in ``labels`` raises RecordError.
    Picks the best config per model, merges runs under ``merge_policy``,
    computes the overlap summary, fuses the probabilities of the flagged
    windows, builds the mask, and scores the chosen configs. The CLI's ``ifc``
    command runs this once and persists the overlap summary, the fused
    distributions and the metrics; the other audit commands are views of
    those files.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if records.probs.shape[1] != num_classes:
        raise ValueError(
            f"log holds {records.probs.shape[1]} classes but the dataset defines {num_classes}"
        )
    check_labels(records, labels)
    chosen = best_hyperparams(records)
    kept = filter_to_configs(records, chosen)
    matrix = merge_runs(kept, labels.size, policy=merge_policy)
    summary = compute_ifc(matrix)
    fused = fuse_probabilities(kept, np.flatnonzero(summary.ifc_flags), labels)
    mask = build_mask(
        summary.ifc_flags,
        fused,
        window_bounds,
        total_samples,
    )
    return AuditResult(
        ifc=summary,
        fused=fused,
        mask=mask,
        chosen_configs=chosen,
        metrics=model_metrics(kept),
    )
