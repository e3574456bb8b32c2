"""Observability overhead gate: tracing + metrics must cost <5% on hot paths.

The ``repro.obs`` instrumentation sits on the DGCNN forward path (fused
dispatch counters in ``graph.fused``, scatter counters, span bookkeeping).
This benchmark times the same fused float32 DGCNN forward as
``bench_dtype_fused.py`` twice:

* with observability fully enabled and the forward wrapped in a
  ``trace_span`` (the ``repro search --trace`` configuration), and
* with both the process tracer and metrics registry disabled via
  ``observability_disabled()`` (the default untraced configuration).

The two configurations alternate round by round after a warm-up round
(the ``ab_medians`` timer), and the ratio of their median forward times
must stay below ``MAX_OVERHEAD``.
"""

from __future__ import annotations

from repro.backends import use_backend
from repro.data.dataset import Batch, collate
from repro.data.synthetic_modelnet import make_synthetic_modelnet
from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.nn.dtype import default_dtype
from repro.nn.tensor import no_grad
from repro.obs import get_metrics, get_tracer, observability_disabled, reset_observability, trace_span

MAX_OVERHEAD = 1.05
ROUNDS = 20
NUM_CLASSES = 6
NUM_POINTS = 256
EVAL_CLOUDS = 8
K = 16


def _build() -> tuple[DGCNN, Batch]:
    with default_dtype("float32"):
        _, val_set = make_synthetic_modelnet(
            num_classes=NUM_CLASSES, samples_per_class=4, num_points=NUM_POINTS, seed=0
        )
        model = DGCNN(DGCNNConfig(num_classes=NUM_CLASSES, k=K, layer_dims=(32, 32, 64)))
        batch = collate([val_set[i] for i in range(EVAL_CLOUDS)])
    return model.eval(), batch


def test_tracing_overhead_under_gate(benchmark, ab_medians):
    """Traced fused DGCNN forward stays within 5% of the untraced forward."""
    model, batch = _build()
    reset_observability()

    def traced_forward():
        with trace_span("bench.forward"):
            model(batch)

    def untraced_forward():
        with observability_disabled():
            model(batch)

    with no_grad(), use_backend("numpy"):
        medians, _ = ab_medians({"untraced": untraced_forward, "traced": traced_forward}, rounds=ROUNDS)
        benchmark.pedantic(traced_forward, rounds=3, iterations=1)
    untraced_s, traced_s = medians["untraced"], medians["traced"]

    # The traced pass actually recorded: spans landed and the fused kernels
    # bumped their dispatch counter.
    assert any(span.name == "bench.forward" for span in get_tracer().spans)
    assert get_metrics().snapshot()["graph.fused.dispatch"]["value"] > 0

    overhead = traced_s / untraced_s
    benchmark.extra_info["untraced_ms"] = round(untraced_s * 1e3, 3)
    benchmark.extra_info["traced_ms"] = round(traced_s * 1e3, 3)
    benchmark.extra_info["overhead"] = round(overhead, 4)
    reset_observability()

    assert overhead < MAX_OVERHEAD, (
        f"observability overhead {overhead:.3f}x exceeds the {MAX_OVERHEAD:.2f}x gate "
        f"(traced {traced_s * 1e3:.3f} ms vs untraced {untraced_s * 1e3:.3f} ms)"
    )
