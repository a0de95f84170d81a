"""Prediction-log walkthrough: a log as a columnar table, validating its
probability records, picking the best hyperparameter config per model, and
merging correctness across runs.

This is the ingestion side used when the probabilities come from externally
trained models rather than the built-in reference classifier.

Run with:  python3 demos/04_prediction_logs.py
"""

import io

import numpy as np

from haraudit import (
    PredictionTable,
    best_hyperparams,
    filter_to_configs,
    merge_runs,
    model_metrics,
    read_records,
    write_records,
)
from haraudit.predictions import RecordError

rng = np.random.default_rng(4)

# ---------------------------------------------------------------------------
# Fake logs for two models x two configs x three runs over 60 windows.
# Config quality differs so the selection has something to find.
# ---------------------------------------------------------------------------
QUALITY = {("cnn", "bs064_lr0.01"): 0.9, ("cnn", "bs256_lr0.1"): 0.7,
           ("gru", "bs064_lr0.01"): 0.6, ("gru", "bs256_lr0.1"): 0.8}
# One row per (model, config, run, window), in that nesting order.
keys = [(m, c, r, w) for (m, c) in QUALITY for r in range(3) for w in range(60)]
model, config, run, window = (np.array(column) for column in zip(*keys))
label = window % 3
correct = rng.random(len(keys)) < np.array([QUALITY[m, c] for m, c, _, _ in keys])
probs = np.full((len(keys), 3), 0.1)
probs[np.arange(len(keys)), np.where(correct, label, (label + 1) % 3)] = 0.8
# A table holds model and config as int32 codes into their ids in ascending
# order, so the codes sort as the ids do; text appears only where an id is printed.
model_names, model = np.unique(model, return_inverse=True)
config_names, config = np.unique(config, return_inverse=True)
records = PredictionTable(
    dataset="demo", model=model.astype(np.int32), config=config.astype(np.int32), run=run,
    fold=window % 4, window=window, label=label, probs=probs,
    model_names=tuple(model_names.tolist()), config_names=tuple(config_names.tolist()),
)
print(f"models {records.model_names} are codes {sorted(set(records.model.tolist()))}")

# ---------------------------------------------------------------------------
# The JSONL round trip is exact; validation rejects malformed records.
# ---------------------------------------------------------------------------
buf = io.StringIO()
write_records(records, buf)
buf.seek(0)
back = read_records(buf)
assert (back.model_names, back.config_names) == (records.model_names, records.config_names)
assert all(np.array_equal(getattr(back, name), getattr(records, name))
           for name in ("model", "config", "run", "window", "label", "probs"))
print(f"{len(records)} records round-tripped losslessly")

bad = io.StringIO(
    '{"dataset":"demo","model":"cnn","config":"c","run":0,"fold":0,'
    '"window":0,"label":0,"probs":[0.6,0.5,0.1]}\n'
)
try:
    read_records(bad)
except RecordError as exc:
    print(f"rejected: {exc}")

# ---------------------------------------------------------------------------
# Best config per model by mean out-of-fold accuracy across runs.
# ---------------------------------------------------------------------------
chosen = best_hyperparams(records)
for (dataset, model), config in sorted(chosen.items()):
    print(f"best config for {model}: {config}")

filtered = filter_to_configs(records, chosen)
for key, m in sorted(model_metrics(filtered).items()):
    print(f"{'/'.join(key)}: acc {m.accuracy_mean:.3f} +/- {m.accuracy_std:.3f}, "
          f"weighted F1 {m.weighted_f1_mean:.3f} +/- {m.weighted_f1_std:.3f}")

# ---------------------------------------------------------------------------
# Run merging: a window only counts as correct for a model per the policy.
# The log must cover windows 0..59, which become the matrix columns.
# ---------------------------------------------------------------------------
for policy in ("any", "majority", "all"):
    matrix = merge_runs(filtered, 60, policy)
    shares = 100 * matrix.values.mean(axis=1)
    line = "  ".join(f"{m}: {s:.1f}%" for m, s in zip(matrix.model_ids, shares))
    print(f"windows correct under {policy:>8}: {line}")
