"""Training loop of the latency predictor.

The paper trains the predictor for 250 epochs with MAPE loss on 30K
architectures labelled by on-device measurement.  The loop below follows
the same procedure at a configurable scale; internally the network
regresses a standardised log-latency (latencies span four orders of
magnitude across the devices), which keeps optimisation well conditioned,
and the reported metrics (MAPE, error-bound accuracy) are always computed
on the raw millisecond scale exactly as in the paper's Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.loss import huber_loss
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.obs.tracer import get_tracer
from repro.predictor.batch import forward_graphs, predict_latencies
from repro.predictor.dataset import PredictorDataset
from repro.predictor.metrics import PredictorMetrics, compute_metrics
from repro.predictor.model import LatencyPredictor

__all__ = [
    "PredictorTrainingConfig",
    "PredictorTrainingHistory",
    "train_predictor",
    "evaluate_predictor",
]


@dataclass(frozen=True)
class PredictorTrainingConfig:
    """Hyper-parameters of predictor training."""

    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 1e-2
    weight_decay: float = 1e-5
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class PredictorTrainingHistory:
    """Loss/validation curves of one training run."""

    train_losses: list[float] = field(default_factory=list)
    val_mape: list[float] = field(default_factory=list)


def _log_targets(dataset: PredictorDataset) -> np.ndarray:
    return np.log1p(dataset.latencies())


def train_predictor(
    predictor: LatencyPredictor,
    train_dataset: PredictorDataset,
    val_dataset: PredictorDataset | None = None,
    config: PredictorTrainingConfig | None = None,
) -> PredictorTrainingHistory:
    """Train a latency predictor.

    Every minibatch runs one :func:`~repro.predictor.batch.forward_graphs`
    call with autograd on, and each epoch is one ``predictor.train.epoch``
    span carrying the mean loss (and the validation MAPE when validating).

    Args:
        predictor: Model to train (modified in place; its target
            normalisation constants are set from the training labels).
        train_dataset: Labelled architectures for training.
        val_dataset: Optional validation set evaluated each epoch (raw MAPE).
        config: Training hyper-parameters.

    Returns:
        The training history (per-epoch loss and validation MAPE).
    """
    config = config or PredictorTrainingConfig()
    if len(train_dataset) == 0:
        raise ValueError("training dataset is empty")
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(predictor.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)
    history = PredictorTrainingHistory()

    log_targets = _log_targets(train_dataset)
    mean = float(log_targets.mean())
    std = float(log_targets.std())
    predictor.set_target_normalization(mean, std if std > 1e-9 else 1.0)
    standardised = (log_targets - predictor.target_mean) / predictor.target_std
    graphs = [sample.graph for sample in train_dataset.samples]

    predictor.train()
    for epoch in range(config.epochs):
        with get_tracer().span("predictor.train.epoch", epoch=epoch) as span:
            order = rng.permutation(len(graphs))
            epoch_losses: list[float] = []
            for start in range(0, len(order), config.batch_size):
                batch_indices = order[start : start + config.batch_size]
                predictions = forward_graphs(predictor, [graphs[int(i)] for i in batch_indices])
                loss = huber_loss(predictions, Tensor(standardised[batch_indices]), delta=1.0)
                predictor.zero_grad()
                loss.backward()
                clip_grad_norm(predictor.parameters(), config.grad_clip)
                optimizer.step()
                epoch_losses.append(loss.item())
            history.train_losses.append(float(np.mean(epoch_losses)))
            span.attributes["loss"] = history.train_losses[-1]
            if val_dataset is not None and len(val_dataset) > 0:
                history.val_mape.append(evaluate_predictor(predictor, val_dataset).mape)
                span.attributes["val_mape"] = history.val_mape[-1]
    return history


def evaluate_predictor(predictor: LatencyPredictor, dataset: PredictorDataset) -> PredictorMetrics:
    """Evaluate a predictor on raw latencies: MAPE, bounded accuracy, ranking."""
    predicted = predict_latencies(predictor, [sample.graph for sample in dataset.samples])
    return compute_metrics(predicted, dataset.latencies())
