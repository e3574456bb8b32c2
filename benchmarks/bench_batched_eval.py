"""Batched population-evaluation fast path: speedup and exactness.

The acceptance claims of the batched evaluation path, quantified:

* scoring a population of encoded architecture graphs through one batched
  predictor forward is at least 3x faster than the sequential per-graph
  path and returns **bit-identical** floats;
* a full HGNAS search through the batched path finds the same best
  architecture (same score, same history) as the sequential search under
  the same seed.

End-to-end architecture-level numbers (encoding included, which the two
paths share) are attached as ``extra_info`` for context.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.synthetic_modelnet import make_synthetic_modelnet
from repro.hardware import get_device
from repro.nas import HGNAS, HGNASConfig
from repro.nas.design_space import DesignSpace, DesignSpaceConfig
from repro.predictor.model import LatencyPredictor, PredictorConfig

POPULATION = 64
MIN_SPEEDUP = 3.0
ROUNDS = 9


def _population(num: int = POPULATION) -> tuple[list, LatencyPredictor]:
    space = DesignSpace(DesignSpaceConfig(num_positions=12))
    rng = np.random.default_rng(0)
    architectures = [space.random_architecture(rng) for _ in range(num)]
    predictor = LatencyPredictor(PredictorConfig())
    predictor.set_target_normalization(1.3, 0.8)
    return architectures, predictor


def test_population_scoring_speedup(benchmark, ab_medians):
    """Batched population scoring: >=3x the sequential path, same floats."""
    architectures, predictor = _population()
    graphs = [predictor.encode(arch) for arch in architectures]

    sequential = np.array([predictor.predict_from_graph(graph) for graph in graphs])
    batched = predictor.predict_many_graphs(graphs)
    np.testing.assert_array_equal(batched, sequential)

    scoring, _ = ab_medians(
        {
            "sequential": lambda: [predictor.predict_from_graph(graph) for graph in graphs],
            "batched": lambda: predictor.predict_many_graphs(graphs),
        },
        rounds=ROUNDS,
    )
    end_to_end, _ = ab_medians(
        {
            "sequential": lambda: [predictor.predict_latency_ms(arch) for arch in architectures],
            "batched": lambda: predictor.predict_many(architectures),
        },
        rounds=ROUNDS,
    )
    sequential_s, batched_s = scoring["sequential"], scoring["batched"]

    benchmark.pedantic(lambda: predictor.predict_many_graphs(graphs), rounds=3, iterations=1)
    benchmark.extra_info["population"] = POPULATION
    benchmark.extra_info["sequential_ms"] = round(sequential_s * 1e3, 3)
    benchmark.extra_info["batched_ms"] = round(batched_s * 1e3, 3)
    benchmark.extra_info["speedup"] = round(sequential_s / batched_s, 2)
    benchmark.extra_info["end_to_end_speedup"] = round(end_to_end["sequential"] / end_to_end["batched"], 2)

    assert sequential_s >= MIN_SPEEDUP * batched_s, (
        f"batched population scoring only {sequential_s / batched_s:.2f}x faster"
    )


def test_search_batched_matches_sequential(benchmark):
    """Full HGNAS search: batched path reproduces the sequential result."""
    train_set, val_set = make_synthetic_modelnet(
        num_classes=4, samples_per_class=5, num_points=24, seed=0
    )
    config = HGNASConfig(
        num_positions=6,
        hidden_dim=12,
        supernet_k=4,
        num_classes=4,
        population_size=4,
        function_iterations=1,
        operation_iterations=2,
        function_epochs=1,
        operation_epochs=1,
        batch_size=6,
        eval_max_batches=1,
        paths_per_function_eval=1,
        seed=0,
    )
    predictor = LatencyPredictor(PredictorConfig(gcn_dims=(16, 24, 24), mlp_dims=(16, 8)))
    predictor.set_target_normalization(1.5, 0.7)

    def run(batched: bool):
        search = HGNAS.for_device(
            dataclasses.replace(config, batched_evaluation=batched),
            train_set,
            val_set,
            get_device("jetson-tx2"),
            latency_oracle="predictor",
            predictor=predictor,
            rng=np.random.default_rng(0),
        )
        return search.run()

    batched_result = benchmark.pedantic(lambda: run(True), rounds=1, iterations=1)
    sequential_result = run(False)

    benchmark.extra_info["best_score"] = round(batched_result.best_score, 6)
    benchmark.extra_info["evaluations"] = batched_result.evaluations

    assert (
        batched_result.best_architecture.key() == sequential_result.best_architecture.key()
    )
    assert batched_result.best_score == sequential_result.best_score
    assert batched_result.search_time_s == sequential_result.search_time_s
    assert [dataclasses.astuple(point) for point in batched_result.history] == [
        dataclasses.astuple(point) for point in sequential_result.history
    ]
