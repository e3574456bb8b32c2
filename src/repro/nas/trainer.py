"""Training and evaluation loops for classifiers and the one-shot supernet."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.dataset import DataLoader, InMemoryDataset
from repro.nas.architecture import Architecture
from repro.nas.supernet import Supernet
from repro.nn.layers import Module
from repro.nn.loss import accuracy, balanced_accuracy, cross_entropy
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import no_grad
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

__all__ = [
    "TrainingHistory",
    "EvalMetrics",
    "train_classifier",
    "evaluate_classifier",
    "train_supernet",
    "evaluate_path",
]


@dataclass
class TrainingHistory:
    """Per-epoch loss/accuracy curves."""

    losses: list[float] = field(default_factory=list)
    train_accuracies: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class EvalMetrics:
    """Classification metrics over a dataset."""

    overall_accuracy: float
    balanced_accuracy: float
    loss: float
    num_samples: int


def _make_loader(
    dataset: InMemoryDataset, batch_size: int, shuffle: bool, rng: np.random.Generator
) -> DataLoader:
    return DataLoader(dataset, batch_size=batch_size, shuffle=shuffle, rng=rng)


def train_classifier(
    model: Module,
    train_dataset: InMemoryDataset,
    epochs: int = 10,
    batch_size: int = 8,
    lr: float = 3e-3,
    weight_decay: float = 1e-4,
    rng: np.random.Generator | None = None,
    val_dataset: InMemoryDataset | None = None,
    grad_clip: float = 5.0,
) -> TrainingHistory:
    """Train a point-cloud classifier with Adam and cross-entropy.

    Args:
        model: Any module mapping a :class:`~repro.data.Batch` to logits.
        train_dataset: Training samples.
        epochs: Number of passes over the training set.
        batch_size: Mini-batch size.
        lr: Learning rate.
        weight_decay: L2 regularisation strength.
        rng: Generator for shuffling (a fixed default is used if omitted).
        val_dataset: Optional dataset evaluated after every epoch.
        grad_clip: Global gradient-norm clip.

    Returns:
        The per-epoch training history.
    """
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    history = TrainingHistory()
    for epoch in range(epochs):
        with get_tracer().span("nn.classifier.epoch", epoch=epoch) as span:
            model.train()
            loader = _make_loader(train_dataset, batch_size, shuffle=True, rng=rng)
            epoch_losses: list[float] = []
            epoch_accs: list[float] = []
            for batch in loader:
                logits = model(batch)
                loss = cross_entropy(logits, batch.labels)
                model.zero_grad()
                loss.backward()
                clip_grad_norm(model.parameters(), grad_clip)
                optimizer.step()
                epoch_losses.append(loss.item())
                epoch_accs.append(accuracy(logits, batch.labels))
            history.losses.append(float(np.mean(epoch_losses)))
            history.train_accuracies.append(float(np.mean(epoch_accs)))
            if val_dataset is not None:
                history.val_accuracies.append(
                    evaluate_classifier(model, val_dataset, batch_size).overall_accuracy
                )
            span.attributes.update(
                batches=len(epoch_losses),
                loss=history.losses[-1],
                accuracy=history.train_accuracies[-1],
            )
        get_metrics().count("nn.classifier.epochs")
    return history


def evaluate_classifier(
    model: Module, dataset: InMemoryDataset, batch_size: int = 8, max_batches: int | None = None
) -> EvalMetrics:
    """Evaluate a classifier: overall accuracy, balanced accuracy and loss."""
    model.eval()
    all_logits: list[np.ndarray] = []
    all_labels: list[np.ndarray] = []
    losses: list[float] = []
    loader = _make_loader(dataset, batch_size, shuffle=False, rng=np.random.default_rng(0))
    with no_grad():
        for index, batch in enumerate(loader):
            if max_batches is not None and index >= max_batches:
                break
            logits = model(batch)
            losses.append(cross_entropy(logits, batch.labels).item())
            all_logits.append(logits.data)
            all_labels.append(batch.labels)
    model.train()
    if not all_logits:
        return EvalMetrics(0.0, 0.0, 0.0, 0)
    logits = np.concatenate(all_logits, axis=0)
    labels = np.concatenate(all_labels, axis=0)
    return EvalMetrics(
        overall_accuracy=accuracy(logits, labels),
        balanced_accuracy=balanced_accuracy(logits, labels),
        loss=float(np.mean(losses)),
        num_samples=int(labels.shape[0]),
    )


def train_supernet(
    supernet: Supernet,
    train_dataset: InMemoryDataset,
    path_sampler: Callable[[np.random.Generator], Architecture],
    epochs: int = 5,
    batch_size: int = 8,
    lr: float = 3e-3,
    rng: np.random.Generator | None = None,
    grad_clip: float = 5.0,
    start_epoch: int = 0,
    optimizer_state: dict[str, np.ndarray] | None = None,
    on_epoch: Callable[[int, Adam], None] | None = None,
) -> TrainingHistory:
    """Train the one-shot supernet with uniform single-path sampling.

    A fresh random path is drawn for every mini-batch (single-path one-shot
    training as in Guo et al.), so every position/operation pair receives
    gradient signal over the course of an epoch.

    Args:
        supernet: The weight-sharing supernet.
        train_dataset: Training samples.
        path_sampler: Callable drawing a random :class:`Architecture` — this
            is where stage 1 (random functions) and stage 2 (fixed functions)
            differ.
        epochs: Number of passes over the training set.
        batch_size: Mini-batch size.
        lr: Learning rate.
        rng: Generator for shuffling and path sampling.
        grad_clip: Global gradient-norm clip.
        start_epoch: First epoch index to run (resume support: epochs
            ``[0, start_epoch)`` are assumed already applied to the weights,
            the optimizer state and ``rng``).
        optimizer_state: Optimiser slots captured by ``Adam.state_dict`` at
            the checkpoint being resumed.
        on_epoch: Called after every completed epoch with
            ``(epoch_index, optimizer)`` — the checkpoint hook.
    """
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    if not 0 <= start_epoch <= epochs:
        raise ValueError(f"start_epoch must lie in [0, {epochs}], got {start_epoch}")
    rng = rng if rng is not None else np.random.default_rng(0)
    optimizer = Adam(supernet.parameters(), lr=lr)
    if optimizer_state is not None:
        optimizer.load_state_dict(optimizer_state)
    history = TrainingHistory()
    for epoch in range(start_epoch, epochs):
        with get_tracer().span("nas.supernet.epoch", epoch=epoch) as span:
            supernet.train()
            loader = _make_loader(train_dataset, batch_size, shuffle=True, rng=rng)
            epoch_losses: list[float] = []
            epoch_accs: list[float] = []
            for batch in loader:
                path = path_sampler(rng)
                logits = supernet(batch, path)
                loss = cross_entropy(logits, batch.labels)
                supernet.zero_grad()
                loss.backward()
                clip_grad_norm(supernet.parameters(), grad_clip)
                optimizer.step()
                epoch_losses.append(loss.item())
                epoch_accs.append(accuracy(logits, batch.labels))
            history.losses.append(float(np.mean(epoch_losses)))
            history.train_accuracies.append(float(np.mean(epoch_accs)))
            span.attributes.update(
                batches=len(epoch_losses),
                loss=history.losses[-1],
                accuracy=history.train_accuracies[-1],
            )
        get_metrics().count("nas.supernet.epochs")
        if on_epoch is not None:
            on_epoch(epoch, optimizer)
    return history


def evaluate_path(
    supernet: Supernet,
    architecture: Architecture,
    dataset: InMemoryDataset,
    batch_size: int = 8,
    max_batches: int | None = None,
) -> float:
    """Weight-sharing validation accuracy of one path through the supernet."""
    supernet.eval()
    all_logits: list[np.ndarray] = []
    all_labels: list[np.ndarray] = []
    loader = _make_loader(dataset, batch_size, shuffle=False, rng=np.random.default_rng(0))
    with no_grad():
        for index, batch in enumerate(loader):
            if max_batches is not None and index >= max_batches:
                break
            logits = supernet(batch, architecture)
            all_logits.append(logits.data)
            all_labels.append(batch.labels)
    supernet.train()
    if not all_logits:
        return 0.0
    return accuracy(np.concatenate(all_logits, axis=0), np.concatenate(all_labels, axis=0))
