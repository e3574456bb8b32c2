"""Loss functions.

The classification models train with cross-entropy and the latency
predictor with the Huber loss; its validation error is reported as MAPE by
:mod:`repro.predictor.metrics`.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor, as_tensor

__all__ = [
    "cross_entropy",
    "huber_loss",
    "accuracy",
    "balanced_accuracy",
]


def _check_labels(logits: Tensor, targets: np.ndarray) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1:
        raise ValueError(f"targets must be a 1-D class-index array, got shape {targets.shape}")
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (batch, classes), got shape {logits.shape}")
    if targets.shape[0] != logits.shape[0]:
        raise ValueError("logits and targets batch sizes differ")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise ValueError("targets contain out-of-range class indices")
    return targets


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy from raw logits and integer class labels."""
    logits = as_tensor(logits)
    targets = _check_labels(logits, targets)
    log_probs = F.log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(targets.shape[0]), targets]
    return -picked.mean()


def huber_loss(prediction: Tensor, target: Tensor | np.ndarray, delta: float = 1.0) -> Tensor:
    """Huber (smooth-L1) loss."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = 0.5 * diff**2
    linear = delta * abs_diff - 0.5 * delta**2
    mask = (abs_diff.data <= delta).astype(abs_diff.data.dtype)
    return (quadratic * Tensor(mask) + linear * Tensor(1.0 - mask)).mean()


def accuracy(logits: Tensor | np.ndarray, targets: np.ndarray) -> float:
    """Overall accuracy (fraction of correct argmax predictions)."""
    logits = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[0] == 0:
        return 0.0
    predictions = logits.argmax(axis=-1)
    return float((predictions == targets).mean())


def balanced_accuracy(logits: Tensor | np.ndarray, targets: np.ndarray) -> float:
    """Class-balanced (mean per-class) accuracy — the paper's ``mAcc``."""
    logits = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[0] == 0:
        return 0.0
    predictions = logits.argmax(axis=-1)
    per_class = []
    for cls in np.unique(targets):
        mask = targets == cls
        per_class.append(float((predictions[mask] == cls).mean()))
    return float(np.mean(per_class))
