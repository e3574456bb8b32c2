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
  allclose parameter gradients;
* the fused aggregate's column-wise gather-max is at least 1.3x faster than
  building ``x[sources]`` and reducing its middle axis, at DGCNN's first
  feature layer (1024 points x 64 channels, k=20), with equal output;
* the fused ``full`` aggregate, forward plus backward under all four
  aggregators, is at least 3x faster than the materialized path at the
  search's shape (8 clouds x 64 points, width 24, random graphs with k=6),
  with bit-identical forward output.

Both models run the same eval batches.  Every timing alternates the two
configurations round by round after a warm-up round (the ``ab_medians``
timer) and compares medians.
"""

from __future__ import annotations

import numpy as np

from repro.backends import gather_reduce, use_backend
from repro.data.dataset import Batch, collate
from repro.data.synthetic_modelnet import make_synthetic_modelnet
from repro.graph.batching import batched_random_graph
from repro.graph.fused import propagate
from repro.graph.knn import knn_graph
from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.nas.derived import DerivedModel
from repro.nas.presets import device_fast_architecture
from repro.nn.dtype import default_dtype
from repro.nn.loss import accuracy, cross_entropy
from repro.nn.tensor import Tensor, no_grad

MIN_SPEEDUP = 1.5
MIN_TRAIN_SPEEDUP = 1.2
MIN_GATHER_SPEEDUP = 1.3
MIN_FULL_SPEEDUP = 3.0
ROUNDS = 5
TRAIN_ROUNDS = 5
GATHER_ROUNDS = 25
FULL_ROUNDS = 15
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


def _on(backend: str, fn, *args):
    """A deferred call of ``fn(*args)`` on ``backend``."""

    def call():
        with use_backend(backend):
            return fn(*args)

    return call


def _logits(model, batch: Batch) -> np.ndarray:
    return model(batch).numpy()


def test_float32_fused_speedup_and_parity(benchmark, ab_medians):
    """float32+fused inference: >=1.5x the float64 baseline, same answers."""
    dgcnn64, derived64, batch64 = _build("float64")
    dgcnn32, derived32, batch32 = _build("float32")

    with no_grad():
        # The two dtype pipelines share the seed, so the float32 weights and
        # data are rounded copies of the float64 ones.
        seconds, logits = ab_medians(
            {
                "dgcnn64": _on("materialized", _logits, dgcnn64, batch64),
                "dgcnn32": _on("numpy", _logits, dgcnn32, batch32),
                "derived64": _on("materialized", _logits, derived64, batch64),
                "derived32": _on("numpy", _logits, derived32, batch32),
            },
            rounds=ROUNDS,
        )
        with use_backend("numpy"):
            benchmark.pedantic(lambda: derived32(batch32), rounds=3, iterations=1)
        # Within one dtype, fused and materialized are interchangeable.
        logits32_materialized = _on("materialized", _logits, derived32, batch32)()

    assert logits["dgcnn32"].dtype == np.float32 and logits["dgcnn64"].dtype == np.float64
    np.testing.assert_allclose(logits32_materialized, logits["derived32"], rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(logits["dgcnn32"], logits["dgcnn64"], rtol=5e-3, atol=5e-3)
    np.testing.assert_allclose(logits["derived32"], logits["derived64"], rtol=5e-3, atol=5e-3)

    labels = batch64.labels
    acc64 = accuracy(logits["dgcnn64"], labels), accuracy(logits["derived64"], labels)
    acc32 = accuracy(logits["dgcnn32"], labels), accuracy(logits["derived32"], labels)
    assert abs(acc64[0] - acc32[0]) <= 1e-9, "DGCNN top-1 accuracy diverged under float32"
    assert abs(acc64[1] - acc32[1]) <= 1e-9, "derived-model top-1 accuracy diverged under float32"

    dgcnn_speedup = seconds["dgcnn64"] / seconds["dgcnn32"]
    derived_speedup = seconds["derived64"] / seconds["derived32"]
    benchmark.extra_info["dgcnn_baseline_ms"] = round(seconds["dgcnn64"] * 1e3, 2)
    benchmark.extra_info["dgcnn_fused_ms"] = round(seconds["dgcnn32"] * 1e3, 2)
    benchmark.extra_info["dgcnn_speedup"] = round(dgcnn_speedup, 2)
    benchmark.extra_info["derived_baseline_ms"] = round(seconds["derived64"] * 1e3, 2)
    benchmark.extra_info["derived_fused_ms"] = round(seconds["derived32"] * 1e3, 2)
    benchmark.extra_info["derived_speedup"] = round(derived_speedup, 2)
    benchmark.extra_info["accuracy"] = acc32[0]

    assert dgcnn_speedup >= MIN_SPEEDUP, (
        f"float32+fused DGCNN forward only {dgcnn_speedup:.2f}x faster than float64 baseline"
    )
    assert derived_speedup >= MIN_SPEEDUP, (
        f"float32+fused derived-model forward only {derived_speedup:.2f}x faster than float64 baseline"
    )


def _train_step(model, batch: Batch) -> dict[str, np.ndarray]:
    """One forward + backward; returns the gradients."""
    model.zero_grad()
    cross_entropy(model(batch), batch.labels).backward()
    return {name: param.grad for name, param in model.named_parameters() if param.grad is not None}


def test_float32_fused_train_step_speedup_and_parity(benchmark, ab_medians):
    """Fused training steps: >=1.2x the materialized path, allclose gradients."""
    dgcnn, derived, batch = _build("float32")
    for name, model in (("dgcnn", dgcnn), ("derived", derived)):
        # eval() keeps dropout inert so both paths see identical networks;
        # grad stays enabled, so this is a full training forward + backward.
        times, grads = ab_medians(
            {
                "numpy": _on("numpy", _train_step, model, batch),
                "materialized": _on("materialized", _train_step, model, batch),
            },
            rounds=TRAIN_ROUNDS,
        )

        assert grads["numpy"].keys() == grads["materialized"].keys()
        for param, grad in grads["numpy"].items():
            reference = grads["materialized"][param]
            np.testing.assert_allclose(
                grad, reference, rtol=1e-4, atol=1e-4 * float(np.abs(reference).max()), err_msg=param
            )

        fused_s, materialized_s = times["numpy"], times["materialized"]
        speedup = materialized_s / fused_s
        benchmark.extra_info[f"{name}_train_materialized_ms"] = round(materialized_s * 1e3, 2)
        benchmark.extra_info[f"{name}_train_fused_ms"] = round(fused_s * 1e3, 2)
        benchmark.extra_info[f"{name}_train_speedup"] = round(speedup, 2)
        assert speedup >= MIN_TRAIN_SPEEDUP, (
            f"fused {name} train step only {speedup:.2f}x faster than the materialized path"
        )
    benchmark.pedantic(lambda: _train_step(derived, batch), rounds=3, iterations=1)


def test_column_wise_gather_max_speedup(benchmark, ab_medians):
    """Column-wise gather-max: >=1.3x gather + reshape-max at 1024 x 64, k=20, equal output."""
    num_points, width, k = 1024, 64, 20
    x = np.random.default_rng(0).standard_normal((num_points, width)).astype(np.float32)
    sources = knn_graph(x, k)[0]
    counts = np.full(num_points, k, dtype=np.int64)
    starts = np.arange(num_points, dtype=np.int64) * k
    seconds, outputs = ab_medians(
        {
            "column_wise": lambda: gather_reduce(x, sources, starts, counts, "max"),
            "gathered": lambda: x[sources].reshape(num_points, k, width).max(axis=1),
        },
        rounds=GATHER_ROUNDS,
    )
    np.testing.assert_array_equal(outputs["column_wise"], outputs["gathered"])
    speedup = seconds["gathered"] / seconds["column_wise"]
    benchmark.extra_info["gathered_ms"] = round(seconds["gathered"] * 1e3, 3)
    benchmark.extra_info["column_wise_ms"] = round(seconds["column_wise"] * 1e3, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.pedantic(lambda: gather_reduce(x, sources, starts, counts, "max"), rounds=3, iterations=1)
    assert speedup >= MIN_GATHER_SPEEDUP, f"column-wise gather-max only {speedup:.2f}x faster than gather + reshape-max"


def _full_aggregates(points: np.ndarray, edge_index: np.ndarray, weights: np.ndarray) -> list[np.ndarray]:
    """Forward and backward of the ``full`` aggregate under each aggregator; the forward outputs."""
    outputs = []
    for aggregator in ("sum", "mean", "max", "min"):
        x = Tensor(points, requires_grad=True)
        out = propagate(x, edge_index, "full", aggregator, validated=True)
        out.backward(weights)
        outputs.append(out.data)
    return outputs


def test_fused_full_aggregate_speedup(benchmark, ab_medians):
    """Fused ``full`` aggregate, forward + backward: >=3x the materialized path at the search shape."""
    clouds, cloud_points, width, k = 8, 64, 24, 6
    rng = np.random.default_rng(0)
    points = rng.standard_normal((clouds * cloud_points, width)).astype(np.float32)
    edge_index = batched_random_graph(np.repeat(np.arange(clouds), cloud_points), k, rng)
    weights = rng.standard_normal((points.shape[0], 3 * width + 1)).astype(np.float32)
    seconds, outputs = ab_medians(
        {
            "fused": _on("numpy", _full_aggregates, points, edge_index, weights),
            "materialized": _on("materialized", _full_aggregates, points, edge_index, weights),
        },
        rounds=FULL_ROUNDS,
    )
    for fused, materialized in zip(outputs["fused"], outputs["materialized"]):
        np.testing.assert_array_equal(fused, materialized)
    speedup = seconds["materialized"] / seconds["fused"]
    benchmark.extra_info["materialized_ms"] = round(seconds["materialized"] * 1e3, 3)
    benchmark.extra_info["fused_ms"] = round(seconds["fused"] * 1e3, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.pedantic(_on("numpy", _full_aggregates, points, edge_index, weights), rounds=3, iterations=1)
    assert speedup >= MIN_FULL_SPEEDUP, f"fused full aggregate only {speedup:.2f}x faster than the materialized path"
