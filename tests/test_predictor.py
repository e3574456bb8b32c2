"""Tests for the GNN latency predictor: encoding, graph abstraction, model,
dataset generation, training and the search evaluator."""

import numpy as np
import pytest

from repro.hardware import estimate_latency, get_device
from repro.nas import DesignSpace, DesignSpaceConfig, dgcnn_architecture, rtx_fast_architecture
from repro.predictor import (
    FEATURE_DIM,
    NODE_TYPES,
    LatencyPredictor,
    PredictorConfig,
    PredictorLatencyEvaluator,
    PredictorTrainingConfig,
    architecture_to_graph,
    compute_metrics,
    encode_global_node,
    encode_node_type,
    encode_operation_node,
    encode_terminal_node,
    error_bound_accuracy,
    evaluate_predictor,
    generate_predictor_dataset,
    mape,
    train_predictor,
)


class TestEncoding:
    def test_node_type_one_hot(self):
        for i, node_type in enumerate(NODE_TYPES):
            vec = encode_node_type(node_type)
            assert vec.sum() == 1.0 and vec[i] == 1.0
        with pytest.raises(ValueError):
            encode_node_type("conv")

    def test_operation_node_features(self):
        arch = dgcnn_architecture()
        ops = arch.effective_ops()
        for op in ops:
            vec = encode_operation_node(op)
            assert vec.shape == (FEATURE_DIM - 3,)
            assert np.all(vec >= 0)

    def test_terminal_and_global_nodes(self):
        assert encode_terminal_node("input").shape == (FEATURE_DIM - 3,)
        with pytest.raises(ValueError):
            encode_terminal_node("global")
        vec = encode_global_node(1024, 20, 8)
        assert vec.shape == (FEATURE_DIM - 3,)
        with pytest.raises(ValueError):
            encode_global_node(0, 20, 8)


class TestArchGraph:
    def test_graph_structure_with_global_node(self):
        arch = dgcnn_architecture()
        graph = architecture_to_graph(arch, num_points=1024, k=20)
        num_ops = len(arch.effective_ops())
        assert graph.num_nodes == num_ops + 3  # input + output + global
        assert graph.features.shape == (graph.num_nodes, FEATURE_DIM)
        assert graph.node_labels[0] == "input"
        assert graph.node_labels[-1] == "global"
        # global node connected to everything in both directions
        global_index = graph.num_nodes - 1
        assert graph.adjacency[global_index, :-1].sum() == num_ops + 2
        assert graph.adjacency[:-1, global_index].sum() == num_ops + 2

    def test_graph_without_global_node(self):
        graph = architecture_to_graph(rtx_fast_architecture(), include_global_node=False)
        assert "global" not in graph.node_labels
        # pure chain: n-1 edges
        assert graph.adjacency.sum() == graph.num_nodes - 1

    def test_aggregation_matrix_self_loops(self):
        graph = architecture_to_graph(rtx_fast_architecture())
        agg = graph.aggregation_matrix()
        assert np.all(np.diag(agg) >= 1.0)


class TestPredictorModel:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PredictorConfig(gcn_dims=(32, 32))
        with pytest.raises(ValueError):
            PredictorConfig(mlp_dims=())

    def test_prediction_positive(self):
        predictor = LatencyPredictor(PredictorConfig(gcn_dims=(8, 8, 8), mlp_dims=(8,)))
        value = predictor.predict_latency_ms(dgcnn_architecture())
        assert value >= 0.0

    def test_normalisation_setter(self):
        predictor = LatencyPredictor(PredictorConfig(gcn_dims=(8, 8, 8), mlp_dims=(8,)))
        predictor.set_target_normalization(2.0, 0.5)
        assert predictor.target_mean == 2.0
        with pytest.raises(ValueError):
            predictor.set_target_normalization(0.0, 0.0)

    def test_predict_many(self):
        predictor = LatencyPredictor(PredictorConfig(gcn_dims=(8, 8, 8), mlp_dims=(8,)))
        values = predictor.predict_many([dgcnn_architecture(), rtx_fast_architecture()])
        assert values.shape == (2,)


class TestMetrics:
    def test_mape(self):
        assert mape(np.array([110.0]), np.array([100.0])) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            mape(np.array([1.0]), np.array([1.0, 2.0]))

    def test_error_bound_accuracy(self):
        predicted = np.array([100.0, 130.0])
        measured = np.array([100.0, 100.0])
        assert error_bound_accuracy(predicted, measured, 0.1) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            error_bound_accuracy(predicted, measured, 0.0)

    def test_compute_metrics_spearman(self):
        measured = np.array([1.0, 2.0, 3.0, 4.0])
        metrics = compute_metrics(measured * 1.05, measured)
        assert metrics.spearman == pytest.approx(1.0)
        assert metrics.bound_accuracy_10 == pytest.approx(1.0)


class TestDatasetAndTraining:
    @pytest.fixture(scope="class")
    def space(self):
        return DesignSpace(DesignSpaceConfig(num_positions=8, k=10, num_points=256, num_classes=10))

    def test_dataset_generation(self, space):
        device = get_device("rtx3080")
        rng = np.random.default_rng(0)
        dataset = generate_predictor_dataset(space, device, 30, rng, measurement_noise=False)
        assert len(dataset) == 30
        # Noise-free labels must match the analytical model exactly.
        sample = dataset.samples[0]
        expected = estimate_latency(sample.architecture.to_workload(256, 10, 10), device).total_ms
        assert sample.latency_ms == pytest.approx(expected)

    def test_dataset_split(self, space, rng):
        device = get_device("jetson-tx2")
        dataset = generate_predictor_dataset(space, device, 20, rng)
        train, val = dataset.split(0.8, rng)
        assert len(train) + len(val) == 20
        assert len(val) >= 1
        with pytest.raises(ValueError):
            dataset.split(1.5, rng)

    def test_training_improves_over_initial(self, space):
        device = get_device("rtx3080")
        rng = np.random.default_rng(1)
        dataset = generate_predictor_dataset(space, device, 90, rng, num_points=1024, k=20)
        train, val = dataset.split(0.75, rng)
        predictor = LatencyPredictor(
            PredictorConfig(gcn_dims=(24, 32, 32), mlp_dims=(24,), num_points=1024, k=20)
        )
        before = evaluate_predictor(predictor, val).mape
        history = train_predictor(
            predictor, train, val, PredictorTrainingConfig(epochs=40, batch_size=16, learning_rate=0.01)
        )
        after = evaluate_predictor(predictor, val)
        assert len(history.train_losses) == 40
        assert after.mape < before
        assert after.spearman > 0.3

    def test_training_empty_dataset_rejected(self, space, rng):
        device = get_device("rtx3080")
        dataset = generate_predictor_dataset(space, device, 5, rng)
        dataset.samples = []
        predictor = LatencyPredictor(PredictorConfig(gcn_dims=(8, 8, 8), mlp_dims=(8,)))
        with pytest.raises(ValueError):
            train_predictor(predictor, dataset)

    def test_evaluator_interface(self, space, rng):
        predictor = LatencyPredictor(PredictorConfig(gcn_dims=(8, 8, 8), mlp_dims=(8,)))
        evaluator = PredictorLatencyEvaluator(predictor)
        value = evaluator.evaluate(space.random_architecture(rng))
        assert value >= 0.0
        assert evaluator.query_cost_s < 1.0
