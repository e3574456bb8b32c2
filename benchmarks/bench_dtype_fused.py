"""Float32 compute policy + fused message-passing kernels: speedup and parity.

The acceptance claims of the dtype/fusion work, quantified:

* an end-to-end inference forward of DGCNN **and** of a searched derived
  model is at least 1.5x faster under the float32 default with the fused
  kernels (per-node gather-reduce for MLP-free aggregates, the chunked
  EdgeConv kernel for DGCNN) than under the float64 materialized baseline
  (the seed configuration);
* the speedup does not change what the models predict: float32+fused logits
  match the float64 baseline to float32 precision and the top-1
  classification accuracy on the synthetic eval set is identical within a
  small tolerance;
* within a fixed dtype the fused path is numerically interchangeable with
  the materialized path (allclose logits), so serving results do not depend
  on which kernel executed them;
* a float32 training step (forward + backward) of both models is at least
  1.2x faster on the fused path than on the materialized one, with
  allclose parameter gradients.

Both models run the same eval batches.  Inference timings are best-of-N to
suppress scheduler noise, mirroring ``bench_batched_eval.py``; training
steps alternate the two paths round by round and compare medians.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends import use_backend
from repro.data.dataset import Batch, collate
from repro.data.synthetic_modelnet import make_synthetic_modelnet
from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.nas.derived import DerivedModel
from repro.nas.presets import device_fast_architecture
from repro.nn.dtype import default_dtype
from repro.nn.loss import accuracy, cross_entropy
from repro.nn.tensor import no_grad

MIN_SPEEDUP = 1.5
MIN_TRAIN_SPEEDUP = 1.2
ROUNDS = 5
TRAIN_ROUNDS = 5
NUM_CLASSES = 6
NUM_POINTS = 256
EVAL_CLOUDS = 8
K = 16


def _build(dtype: str) -> tuple[DGCNN, DerivedModel, Batch]:
    """Models + eval batch constructed entirely under ``dtype``."""
    with default_dtype(dtype):
        _, val_set = make_synthetic_modelnet(
            num_classes=NUM_CLASSES, samples_per_class=4, num_points=NUM_POINTS, seed=0
        )
        dgcnn = DGCNN(DGCNNConfig(num_classes=NUM_CLASSES, k=K, layer_dims=(32, 32, 64)))
        derived = DerivedModel(device_fast_architecture("jetson-tx2"), num_classes=NUM_CLASSES, k=K)
        batch = collate([val_set[i] for i in range(EVAL_CLOUDS)])
    return dgcnn.eval(), derived.eval(), batch


def _best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_float32_fused_speedup_and_parity(benchmark):
    """float32+fused inference: >=1.5x the float64 baseline, same answers."""
    dgcnn64, derived64, batch64 = _build("float64")
    dgcnn32, derived32, batch32 = _build("float32")

    with no_grad():
        # The two dtype pipelines share the seed, so the float32 weights and
        # data are rounded copies of the float64 ones.
        with use_backend("materialized"):
            logits64_dgcnn = dgcnn64(batch64).numpy()
            logits64_derived = derived64(batch64).numpy()
            baseline_dgcnn_s = _best_of(lambda: dgcnn64(batch64))
            baseline_derived_s = _best_of(lambda: derived64(batch64))
        with use_backend("numpy"):
            logits32_dgcnn = dgcnn32(batch32).numpy()
            logits32_derived = derived32(batch32).numpy()
            fused_dgcnn_s = _best_of(lambda: dgcnn32(batch32))
            fused_derived_s = _best_of(lambda: derived32(batch32))
            benchmark.pedantic(lambda: derived32(batch32), rounds=3, iterations=1)
            # Within one dtype, fused and materialized are interchangeable.
            with use_backend("materialized"):
                logits32_materialized = derived32(batch32).numpy()

    assert logits32_dgcnn.dtype == np.float32 and logits64_dgcnn.dtype == np.float64
    np.testing.assert_allclose(logits32_materialized, logits32_derived, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(logits32_dgcnn, logits64_dgcnn, rtol=5e-3, atol=5e-3)
    np.testing.assert_allclose(logits32_derived, logits64_derived, rtol=5e-3, atol=5e-3)

    labels = batch64.labels
    acc64 = accuracy(logits64_dgcnn, labels), accuracy(logits64_derived, labels)
    acc32 = accuracy(logits32_dgcnn, labels), accuracy(logits32_derived, labels)
    assert abs(acc64[0] - acc32[0]) <= 1e-9, "DGCNN top-1 accuracy diverged under float32"
    assert abs(acc64[1] - acc32[1]) <= 1e-9, "derived-model top-1 accuracy diverged under float32"

    dgcnn_speedup = baseline_dgcnn_s / fused_dgcnn_s
    derived_speedup = baseline_derived_s / fused_derived_s
    benchmark.extra_info["dgcnn_baseline_ms"] = round(baseline_dgcnn_s * 1e3, 2)
    benchmark.extra_info["dgcnn_fused_ms"] = round(fused_dgcnn_s * 1e3, 2)
    benchmark.extra_info["dgcnn_speedup"] = round(dgcnn_speedup, 2)
    benchmark.extra_info["derived_baseline_ms"] = round(baseline_derived_s * 1e3, 2)
    benchmark.extra_info["derived_fused_ms"] = round(fused_derived_s * 1e3, 2)
    benchmark.extra_info["derived_speedup"] = round(derived_speedup, 2)
    benchmark.extra_info["accuracy"] = acc32[0]

    assert dgcnn_speedup >= MIN_SPEEDUP, (
        f"float32+fused DGCNN forward only {dgcnn_speedup:.2f}x faster than float64 baseline"
    )
    assert derived_speedup >= MIN_SPEEDUP, (
        f"float32+fused derived-model forward only {derived_speedup:.2f}x faster than float64 baseline"
    )


def _train_step(model, batch: Batch) -> tuple[float, dict[str, np.ndarray]]:
    """One forward + backward; returns its wall time and the gradients."""
    model.zero_grad()
    start = time.perf_counter()
    cross_entropy(model(batch), batch.labels).backward()
    elapsed = time.perf_counter() - start
    return elapsed, {name: param.grad for name, param in model.named_parameters() if param.grad is not None}


def test_float32_fused_train_step_speedup_and_parity(benchmark):
    """Fused training steps: >=1.2x the materialized path, allclose gradients."""
    dgcnn, derived, batch = _build("float32")
    for name, model in (("dgcnn", dgcnn), ("derived", derived)):
        # eval() keeps dropout inert so both paths see identical networks;
        # grad stays enabled, so this is a full training forward + backward.
        times: dict[str, list[float]] = {"numpy": [], "materialized": []}
        grads: dict[str, dict[str, np.ndarray]] = {}
        for round_index in range(TRAIN_ROUNDS):
            order = ("numpy", "materialized") if round_index % 2 == 0 else ("materialized", "numpy")
            for backend in order:
                with use_backend(backend):
                    elapsed, grads[backend] = _train_step(model, batch)
                times[backend].append(elapsed)

        assert grads["numpy"].keys() == grads["materialized"].keys()
        for param, grad in grads["numpy"].items():
            reference = grads["materialized"][param]
            np.testing.assert_allclose(
                grad, reference, rtol=1e-4, atol=1e-4 * float(np.abs(reference).max()), err_msg=param
            )

        fused_s = float(np.median(times["numpy"]))
        materialized_s = float(np.median(times["materialized"]))
        speedup = materialized_s / fused_s
        benchmark.extra_info[f"{name}_train_materialized_ms"] = round(materialized_s * 1e3, 2)
        benchmark.extra_info[f"{name}_train_fused_ms"] = round(fused_s * 1e3, 2)
        benchmark.extra_info[f"{name}_train_speedup"] = round(speedup, 2)
        assert speedup >= MIN_TRAIN_SPEEDUP, (
            f"fused {name} train step only {speedup:.2f}x faster than the materialized path"
        )
    benchmark.pedantic(lambda: _train_step(derived, batch), rounds=3, iterations=1)
