"""Fig. 8 — accuracy of the GNN latency predictor on every device.

For each device a predictor is trained on randomly sampled architectures
labelled with (noisy) device latency and evaluated on held-out
architectures: the paper reports ~6% MAPE on RTX3080 / i7-8700K / Jetson
TX2, ~19% on the Raspberry Pi (noisier measurements), and >80% of
predictions within a 10% error bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.experiments.common import resolve_devices
from repro.nas.design_space import DesignSpace, DesignSpaceConfig
from repro.predictor.batch import predict_latencies
from repro.predictor.dataset import generate_predictor_dataset
from repro.predictor.metrics import compute_metrics
from repro.predictor.model import LatencyPredictor, PredictorConfig
from repro.predictor.train import PredictorTrainingConfig, train_predictor

__all__ = ["PredictorExperimentResult", "run_fig8"]


@dataclass
class PredictorExperimentResult:
    """Trained predictor plus its evaluation for one device."""

    device: str
    mape: float
    bound_accuracy_10: float
    bound_accuracy_20: float
    spearman: float
    predicted_ms: np.ndarray
    measured_ms: np.ndarray
    predictor: LatencyPredictor


def run_fig8(
    devices: Sequence[str] | None = None,
    num_samples: int = 400,
    num_positions: int = 12,
    training: PredictorTrainingConfig | None = None,
    predictor_config: PredictorConfig | None = None,
    seed: int = 0,
) -> list[PredictorExperimentResult]:
    """Train and evaluate one latency predictor per device.

    The paper-scale run uses 30K samples and 250 epochs; the defaults here
    (400 samples) finish in roughly a minute per device on a laptop CPU and
    already show the qualitative picture (good rank correlation everywhere,
    highest error on the Raspberry Pi).
    """
    if num_samples < 20:
        raise ValueError("num_samples must be at least 20")
    space = DesignSpace(DesignSpaceConfig(num_positions=num_positions, k=20, num_points=1024))
    training = training or PredictorTrainingConfig(epochs=80, batch_size=32, learning_rate=1e-2, seed=seed)
    results: list[PredictorExperimentResult] = []
    for device in resolve_devices(devices):
        rng = np.random.default_rng(seed)
        dataset = generate_predictor_dataset(space, device, num_samples, rng)
        train_split, val_split = dataset.split(0.75, rng)
        predictor = LatencyPredictor(
            predictor_config
            or PredictorConfig(gcn_dims=(32, 48, 48), mlp_dims=(32, 16), num_points=1024, k=20, seed=seed)
        )
        train_predictor(predictor, train_split, val_split, training)
        predicted = predict_latencies(predictor, [sample.graph for sample in val_split.samples])
        measured = val_split.latencies()
        metrics = compute_metrics(predicted, measured)
        results.append(
            PredictorExperimentResult(
                device=device.name,
                mape=metrics.mape,
                bound_accuracy_10=metrics.bound_accuracy_10,
                bound_accuracy_20=metrics.bound_accuracy_20,
                spearman=metrics.spearman,
                predicted_ms=predicted,
                measured_ms=measured,
                predictor=predictor,
            )
        )
    return results
