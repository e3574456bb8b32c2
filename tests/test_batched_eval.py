"""Tests for the batched population-evaluation fast path (PR 3).

Covers the predictor's batched forward (bit-identical to the sequential
path, with autograd on as in training), the evolution engine's ``evaluate_many`` hook, the two bugfixes
(``knn_indices`` self-loop padding, degenerate ``num_parents``) and the
batched-vs-sequential equivalence of a full HGNAS search.
"""

import dataclasses

import numpy as np
import pytest

from repro.graph.knn import knn_graph, knn_indices
from repro.hardware import get_device
from repro.nas import HGNAS, HGNASConfig
from repro.nas.design_space import DesignSpace, DesignSpaceConfig
from repro.nas.evolution import EvolutionConfig, EvolutionarySearch
from repro.nas.latency_eval import (
    EvaluatorRequest,
    OracleLatencyEvaluator,
    evaluate_latencies,
    make_latency_evaluator,
)
from repro.nn.loss import huber_loss
from repro.nn.tensor import Tensor, concatenate
from repro.predictor.batch import forward_graphs
from repro.predictor.evaluator import PredictorLatencyEvaluator
from repro.predictor.model import LatencyPredictor, PredictorConfig
from repro.utils.timer import VirtualClock


@pytest.fixture(scope="module")
def population():
    """A mixed-size population of random architectures plus a predictor."""
    space = DesignSpace(DesignSpaceConfig(num_positions=12))
    rng = np.random.default_rng(7)
    architectures = [space.random_architecture(rng) for _ in range(40)]
    predictor = LatencyPredictor(PredictorConfig(gcn_dims=(16, 24, 24), mlp_dims=(16, 8)))
    predictor.set_target_normalization(1.5, 0.7)
    return architectures, predictor


class TestBatchedPredictor:
    def test_predict_many_bit_identical(self, population):
        architectures, predictor = population
        sequential = np.array([predictor.predict_latency_ms(arch) for arch in architectures])
        batched = predictor.predict_many(architectures)
        np.testing.assert_array_equal(sequential, batched)

    def test_predict_many_graphs_bit_identical(self, population):
        architectures, predictor = population
        graphs = [predictor.encode(arch) for arch in architectures]
        sequential = np.array([predictor.predict_from_graph(graph) for graph in graphs])
        np.testing.assert_array_equal(sequential, predictor.predict_many_graphs(graphs))

    def test_empty_and_single(self, population):
        architectures, predictor = population
        assert predictor.predict_many([]).shape == (0,)
        single = predictor.predict_many(architectures[:1])
        assert single.shape == (1,)
        assert single[0] == predictor.predict_latency_ms(architectures[0])

    def test_forward_graphs_with_grad_bit_identical(self, population):
        # The training forward: autograd on, mixed node counts, input order.
        architectures, predictor = population
        graphs = [predictor.encode(arch) for arch in architectures]
        assert len({graph.num_nodes for graph in graphs}) > 1
        batched = forward_graphs(predictor, graphs)
        assert batched.requires_grad
        sequential = np.array([predictor.forward_graph(graph).item() for graph in graphs])
        np.testing.assert_array_equal(batched.numpy(), sequential)

    def test_minibatch_loss_and_gradients_match_per_graph(self, population):
        architectures, predictor = population
        graphs = [predictor.encode(arch) for arch in architectures[:32]]
        targets = Tensor(np.random.default_rng(0).normal(size=len(graphs)))
        parameters = predictor.parameters()

        def loss_and_grads(predictions):
            loss = huber_loss(predictions, targets, delta=1.0)
            predictor.zero_grad()
            loss.backward()
            grads = [parameter.grad.copy() for parameter in parameters]
            predictor.zero_grad()
            return loss.item(), grads

        reference_loss, reference_grads = loss_and_grads(
            concatenate([predictor.forward_graph(graph) for graph in graphs], axis=0)
        )
        loss, grads = loss_and_grads(forward_graphs(predictor, graphs))
        assert loss == reference_loss
        for grad, reference in zip(grads, reference_grads):
            assert np.abs(grad - reference).max() <= 1e-5 * np.abs(reference).max()

    def test_forward_graphs_empty_raises(self, population):
        _, predictor = population
        with pytest.raises(ValueError):
            forward_graphs(predictor, [])

    def test_predictor_evaluator_batch(self, population):
        architectures, predictor = population
        evaluator = PredictorLatencyEvaluator(predictor)
        batched = evaluator.evaluate_many(architectures[:8])
        sequential = np.array([evaluator.evaluate(arch) for arch in architectures[:8]])
        np.testing.assert_array_equal(batched, sequential)


class TestEvaluateLatencies:
    def test_dispatches_to_evaluate_many(self, population):
        architectures, _ = population
        evaluator = OracleLatencyEvaluator(get_device("jetson-tx2"))
        out = evaluate_latencies(evaluator, architectures[:5])
        np.testing.assert_array_equal(
            out, [evaluator.evaluate(arch) for arch in architectures[:5]]
        )
        assert evaluate_latencies(evaluator, []).shape == (0,)

    def test_falls_back_without_evaluate_many(self, population):
        architectures, _ = population

        class Plain:
            query_cost_s = 0.0

            def evaluate(self, architecture):
                return 1.5

        out = evaluate_latencies(Plain(), architectures[:3])
        np.testing.assert_array_equal(out, [1.5, 1.5, 1.5])

    def test_registry_evaluators_batch_matches_sequential(self, population):
        architectures, predictor = population
        for name in ("oracle", "measurement", "predictor"):
            batch = evaluate_latencies(
                make_latency_evaluator(
                    name, EvaluatorRequest(device=get_device("jetson-tx2"), predictor=predictor)
                ),
                architectures[:6],
            )
            # Fresh evaluator: stochastic oracles must draw identical noise.
            sequential_evaluator = make_latency_evaluator(
                name, EvaluatorRequest(device=get_device("jetson-tx2"), predictor=predictor)
            )
            sequential = [sequential_evaluator.evaluate(arch) for arch in architectures[:6]]
            np.testing.assert_array_equal(batch, sequential)


class TestKnnRegression:
    def test_single_point_raises(self):
        # Regression: a 1-point cloud used to silently emit a self-loop even
        # though include_self=False promised none.
        with pytest.raises(ValueError):
            knn_indices(np.zeros((1, 3)), k=2)
        with pytest.raises(ValueError):
            knn_graph(np.zeros((1, 3)), k=2)

    def test_single_point_include_self(self):
        idx = knn_indices(np.zeros((1, 3)), k=3, include_self=True)
        np.testing.assert_array_equal(idx, [[0]])

    def test_all_duplicate_cloud_no_self_loops(self):
        for n in (2, 3, 5, 9):
            points = np.ones((n, 3))
            idx = knn_indices(points, k=4)
            assert idx.shape == (n, min(4, n - 1))
            assert not np.any(idx == np.arange(n)[:, None])
            edge_index = knn_graph(points, k=4)
            assert not np.any(edge_index[0] == edge_index[1])

    def test_no_self_loops_random_clouds(self, rng):
        for n in (2, 3, 7, 30):
            points = rng.normal(size=(n, 3))
            idx = knn_indices(points, k=5)
            assert idx.shape == (n, min(5, n - 1))
            assert not np.any(idx == np.arange(n)[:, None])

    def test_neighbours_sorted_by_distance(self, rng):
        points = rng.normal(size=(20, 3))
        idx = knn_indices(points, k=6)
        for i in range(20):
            dists = ((points[idx[i]] - points[i]) ** 2).sum(axis=1)
            assert np.all(np.diff(dists) >= 0)

    def test_include_self_k1(self, rng):
        points = rng.normal(size=(5, 3))
        idx = knn_indices(points, k=1, include_self=True)
        np.testing.assert_array_equal(idx[:, 0], np.arange(5))


class TestEvolutionBatched:
    @staticmethod
    def _make_search(rng, evaluate_many=None):
        return EvolutionarySearch(
            EvolutionConfig(population_size=8),
            initialize=lambda r: int(r.integers(0, 100)),
            mutate=lambda x, r: int(np.clip(x + r.integers(-5, 6), 0, 100)),
            evaluate=lambda x: -abs(x - 42.0),
            crossover=lambda a, b, r: (a + b) // 2,
            rng=rng,
            evaluate_many=evaluate_many,
        )

    def test_batched_matches_sequential(self):
        sequential = self._make_search(np.random.default_rng(3)).run(12)
        batched = self._make_search(
            np.random.default_rng(3),
            evaluate_many=lambda xs: np.array([-abs(x - 42.0) for x in xs]),
        ).run(12)
        assert batched.best == sequential.best
        assert batched.best_score == sequential.best_score
        assert batched.evaluations == sequential.evaluations
        assert [dataclasses.astuple(p) for p in batched.history] == [
            dataclasses.astuple(p) for p in sequential.history
        ]
        assert batched.population == sequential.population

    def test_batch_deduplicates_and_caches(self):
        calls: list[int] = []

        def evaluate_many(xs):
            calls.append(len(xs))
            return np.array([float(x) for x in xs])

        search = EvolutionarySearch(
            EvolutionConfig(population_size=6),
            initialize=lambda r: int(r.integers(0, 3)),
            mutate=lambda x, r: int((x + 1) % 3),
            evaluate=lambda x: float(x),
            rng=np.random.default_rng(0),
            evaluate_many=evaluate_many,
        )
        search.run(10)
        # Only 3 distinct genotypes exist; the cache must hold evaluations
        # at 3 regardless of how many cohorts were scored.
        assert sum(calls) <= 3
        assert search.evaluations <= 3

    def test_evaluate_many_bad_shape_raises(self):
        search = self._make_search(
            np.random.default_rng(0), evaluate_many=lambda xs: np.zeros(len(xs) + 1)
        )
        with pytest.raises(ValueError):
            search.run(1)

    def test_population_size_two_improves(self):
        # Regression: population_size=2 with half the population kept as
        # parents used to produce num_parents=2 and therefore zero children
        # per generation, freezing the search at its random initial population.
        search = EvolutionarySearch(
            EvolutionConfig(population_size=2),
            initialize=lambda r: 0,
            mutate=lambda x, r: x + 1,
            evaluate=lambda x: float(x),
            rng=np.random.default_rng(0),
        )
        result = search.run(10)
        assert result.best_score > result.history[0].best_score
        assert result.best_score == 10.0

    def test_num_parents_clamped(self):
        assert EvolutionConfig(population_size=2).num_parents == 1
        assert EvolutionConfig(population_size=20).num_parents == 10


class TestSearchEquivalence:
    def test_full_search_batched_matches_sequential(self, tiny_train, tiny_test):
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
            batch_size=5,
            eval_max_batches=1,
            paths_per_function_eval=1,
            seed=0,
        )
        predictor = LatencyPredictor(PredictorConfig(gcn_dims=(16, 24, 24), mlp_dims=(16, 8)))
        predictor.set_target_normalization(1.5, 0.7)
        results = {}
        for batched in (True, False):
            search = HGNAS.for_device(
                dataclasses.replace(config, batched_evaluation=batched),
                tiny_train,
                tiny_test,
                get_device("jetson-tx2"),
                latency_oracle="predictor",
                predictor=predictor,
                rng=np.random.default_rng(0),
            )
            results[batched] = search.run()
        batched_result, sequential_result = results[True], results[False]
        assert (
            batched_result.best_architecture.key() == sequential_result.best_architecture.key()
        )
        assert batched_result.best_score == sequential_result.best_score
        assert batched_result.search_time_s == sequential_result.search_time_s
        assert batched_result.evaluations == sequential_result.evaluations
        assert [dataclasses.astuple(p) for p in batched_result.history] == [
            dataclasses.astuple(p) for p in sequential_result.history
        ]


class TestEvolutionClock:
    def test_batched_clock_matches_sequential(self):
        def run(batched):
            clock = VirtualClock()

            def evaluate(x):
                # Each fresh evaluation charges the clock, as HGNAS's scorers
                # do; 0.01 is not exactly representable: order-sensitive.
                clock.advance(0.01)
                return float(x)

            search = EvolutionarySearch(
                EvolutionConfig(population_size=5),
                initialize=lambda r: int(r.integers(0, 50)),
                mutate=lambda x, r: int(np.clip(x + r.integers(-3, 4), 0, 50)),
                evaluate=evaluate,
                rng=np.random.default_rng(11),
                clock=clock,
                evaluate_many=(lambda xs: [evaluate(x) for x in xs]) if batched else None,
            )
            return search.run(6), clock.now

        sequential_result, sequential_clock = run(False)
        batched_result, batched_clock = run(True)
        assert sequential_clock > 0.0
        assert batched_clock == sequential_clock
        assert [dataclasses.astuple(p) for p in batched_result.history] == [
            dataclasses.astuple(p) for p in sequential_result.history
        ]
