"""Reference window classifier: statistical features + softmax regression.

A deliberately small, fully deterministic stand-in for the deep models whose
prediction logs the audit normally ingests. Features are per-channel mean
and standard deviation; the classifier is multinomial logistic regression
fit by full-batch gradient descent on the mean cross-entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrainConfig:
    step_size: float = 0.1
    epochs: int = 200
    runs: int = 1

    def __post_init__(self):
        if not 0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be finite and positive, got {self.step_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")


@dataclass
class BaselineModel:
    weights: np.ndarray  # [num_classes, num_features]
    bias: np.ndarray  # [num_classes]


def extract_feature_matrix(blocks: np.ndarray) -> np.ndarray:
    """Per-channel mean and std of each [size, channels] window, concatenated
    in channel order: [mean_0, std_0, mean_1, std_1, ...] per row."""
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim != 3:
        raise ValueError("blocks must be [num_windows, size, channels]")
    feats = np.empty((blocks.shape[0], 2 * blocks.shape[2]))
    feats[:, 0::2] = blocks.mean(axis=1)
    feats[:, 1::2] = blocks.std(axis=1)
    return feats


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def loss_and_gradients(
    weights: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy plus its analytic gradients wrt weights and bias."""
    n = features.shape[0]
    probs = _softmax(features @ weights.T + bias)
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    loss = -float(np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    delta = (probs - onehot) / n
    return loss, delta.T @ features, delta.sum(axis=0)


def train_baseline(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    config: TrainConfig = TrainConfig(),
) -> BaselineModel:
    """Fit softmax regression from zero-initialized parameters.

    Every class in 0..num_classes-1 must appear in the training labels, and
    no label may fall outside that range.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if features.ndim != 2 or features.shape[0] != labels.size:
        raise ValueError("features must be [n, f] aligned with labels")
    outside = (labels < 0) | (labels >= num_classes)
    if outside.any():
        raise ValueError(f"label {labels[outside][0]} outside 0..{num_classes - 1}")
    # bincount, not np.unique: in numpy 2 that imports numpy.ma.
    counts = np.bincount(labels, minlength=num_classes)
    missing = np.flatnonzero(counts == 0).tolist()
    if missing:
        raise ValueError(f"classes {missing} absent from the training split")
    weights = np.zeros((num_classes, features.shape[1]))
    bias = np.zeros(num_classes)
    for _ in range(config.epochs):
        _, grad_w, grad_b = loss_and_gradients(weights, bias, features, labels)
        weights -= config.step_size * grad_w
        bias -= config.step_size * grad_b
    return BaselineModel(weights=weights, bias=bias)


def predict_proba(model: BaselineModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities [n, num_classes]; each row sums to 1."""
    features = np.asarray(features, dtype=float)
    return _softmax(features @ model.weights.T + model.bias)
