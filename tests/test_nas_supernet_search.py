"""Tests for the supernet, derived models, trainer, latency evaluators and
the full multi-stage search."""

import numpy as np
import pytest

from repro.data import collate
from repro.hardware import get_device
from repro.nas import (
    HGNAS,
    Architecture,
    DerivedModel,
    FunctionSet,
    HGNASConfig,
    MeasurementLatencyEvaluator,
    ObjectiveConfig,
    OracleLatencyEvaluator,
    Supernet,
    SupernetConfig,
    device_fast_architecture,
    dgcnn_architecture,
    evaluate_classifier,
    evaluate_path,
    train_classifier,
    train_supernet,
)
from repro.utils.timer import VirtualClock


def _supernet(num_classes=4, positions=6):
    return Supernet(SupernetConfig(num_positions=positions, hidden_dim=12, k=4, num_classes=num_classes))


def _search_config(num_classes=4):
    return HGNASConfig(
        num_positions=6,
        hidden_dim=12,
        supernet_k=4,
        num_classes=num_classes,
        population_size=4,
        function_iterations=2,
        operation_iterations=2,
        function_epochs=1,
        operation_epochs=1,
        batch_size=5,
        eval_max_batches=1,
        paths_per_function_eval=1,
        seed=0,
    )


class TestSupernet:
    def test_forward_any_path(self, tiny_train, rng):
        supernet = _supernet()
        batch = collate([tiny_train[i] for i in range(4)])
        for _ in range(5):
            path = supernet.random_path(rng)
            logits = supernet(batch, path)
            assert logits.shape == (4, 4)
            assert np.all(np.isfinite(logits.data))

    def test_path_position_mismatch(self, tiny_train, rng):
        supernet = _supernet(positions=6)
        batch = collate([tiny_train[0]])
        path = Architecture.random(8, rng)
        with pytest.raises(ValueError):
            supernet(batch, path)

    def test_fixed_function_paths(self, rng):
        supernet = _supernet()
        functions = FunctionSet(combine_dim=16)
        path = supernet.random_path(rng, upper_functions=functions, lower_functions=functions)
        assert path.upper_functions == functions

    def test_weight_sharing_across_paths(self, tiny_train, rng):
        supernet = _supernet()
        batch = collate([tiny_train[i] for i in range(4)])
        before = supernet.num_parameters()
        supernet(batch, supernet.random_path(rng))
        supernet(batch, supernet.random_path(rng))
        assert supernet.num_parameters() == before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupernetConfig(num_positions=5)
        with pytest.raises(ValueError):
            SupernetConfig(hidden_dim=0)


class TestTrainer:
    def test_train_classifier_history(self, tiny_train, tiny_test, rng):
        from repro.models import DGCNN, DGCNNConfig

        model = DGCNN(DGCNNConfig(num_classes=4, k=4, layer_dims=(8,), embed_dim=16, classifier_hidden=(16,)))
        history = train_classifier(model, tiny_train, epochs=2, batch_size=5, rng=rng, val_dataset=tiny_test)
        assert len(history.losses) == 2
        assert len(history.val_accuracies) == 2
        metrics = evaluate_classifier(model, tiny_test, batch_size=5)
        assert 0.0 <= metrics.overall_accuracy <= 1.0
        assert metrics.num_samples == len(tiny_test)

    def test_train_supernet_and_evaluate_path(self, tiny_train, rng):
        supernet = _supernet()
        history = train_supernet(
            supernet, tiny_train, lambda r: supernet.random_path(r), epochs=1, batch_size=5, rng=rng
        )
        assert len(history.losses) == 1
        accuracy = evaluate_path(supernet, supernet.random_path(rng), tiny_train, batch_size=5, max_batches=2)
        assert 0.0 <= accuracy <= 1.0

    def test_invalid_epochs(self, tiny_train, rng):
        supernet = _supernet()
        with pytest.raises(ValueError):
            train_supernet(supernet, tiny_train, lambda r: supernet.random_path(r), epochs=0)


class TestDerivedModel:
    def test_forward_shapes(self, tiny_train):
        model = DerivedModel(device_fast_architecture("rtx3080"), num_classes=4, k=4, embed_dim=16)
        batch = collate([tiny_train[i] for i in range(3)])
        assert model(batch).shape == (3, 4)

    def test_trainable(self, tiny_train, rng):
        model = DerivedModel(device_fast_architecture("jetson-tx2"), num_classes=4, k=4, embed_dim=16)
        history = train_classifier(model, tiny_train, epochs=2, batch_size=5, rng=rng)
        assert history.losses[-1] <= history.losses[0] * 1.5

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            DerivedModel(dgcnn_architecture(), num_classes=4, k=0)


class TestLatencyEvaluators:
    def test_oracle_matches_hardware_model(self):
        device = get_device("rtx3080")
        evaluator = OracleLatencyEvaluator(device, num_points=1024, k=20, num_classes=40)
        arch = dgcnn_architecture()
        from repro.hardware import estimate_latency

        expected = estimate_latency(arch.to_workload(1024, 20, 40), device).total_ms
        assert evaluator.evaluate(arch) == pytest.approx(expected)
        assert evaluator.query_cost_s == 0.0

    def test_measurement_evaluator_is_noisy_and_costly(self, rng):
        device = get_device("raspberry-pi")
        evaluator = MeasurementLatencyEvaluator(device, num_points=512, k=10, num_classes=10, rng=rng)
        arch = dgcnn_architecture()
        values = {evaluator.evaluate(arch) for _ in range(3)}
        assert len(values) > 1
        assert evaluator.query_cost_s == device.measurement_round_trip_s


class TestHGNASSearch:
    def test_multi_stage_search_end_to_end(self, tiny_train, tiny_test):
        config = _search_config()
        evaluator = OracleLatencyEvaluator(get_device("rtx3080"), num_points=256, k=10, num_classes=4)
        search = HGNAS(config, tiny_train, tiny_test, evaluator, rng=np.random.default_rng(0))
        result = search.run()
        assert result.best_architecture.num_positions == config.num_positions
        assert result.best_latency_ms > 0
        assert 0.0 <= result.best_accuracy <= 1.0
        assert result.search_time_s > 0
        assert result.strategy == "multi-stage"
        assert len(result.stage1_history) > 0 and len(result.stage2_history) > 0

    def test_one_stage_search(self, tiny_train, tiny_test):
        config = _search_config()
        evaluator = OracleLatencyEvaluator(get_device("i7-8700k"), num_points=256, k=10, num_classes=4)
        search = HGNAS(config, tiny_train, tiny_test, evaluator, rng=np.random.default_rng(0))
        result = search.run_one_stage(iterations=3)
        assert result.strategy == "one-stage"
        assert result.best_latency_ms > 0

    def test_latency_constraint_respected(self, tiny_train, tiny_test):
        config = _search_config()
        device = get_device("rtx3080")
        evaluator = OracleLatencyEvaluator(device, num_points=1024, k=20, num_classes=4)
        constraint = 20.0
        objective = ObjectiveConfig(alpha=1.0, beta=0.1, latency_constraint_ms=constraint, latency_scale_ms=51.8)
        search = HGNAS(
            config, tiny_train, tiny_test, evaluator, objective=objective, rng=np.random.default_rng(1)
        )
        result = search.run()
        if result.best_score > 0:
            assert result.best_latency_ms < constraint

    def test_clock_is_shared(self, tiny_train, tiny_test):
        config = _search_config()
        clock = VirtualClock()
        evaluator = OracleLatencyEvaluator(get_device("gpu"), num_points=256, k=10, num_classes=4)
        search = HGNAS(config, tiny_train, tiny_test, evaluator, rng=np.random.default_rng(0), clock=clock)
        result = search.run()
        assert clock.now == pytest.approx(result.search_time_s)
        assert clock.now >= (config.function_epochs + config.operation_epochs) * config.epoch_cost_s

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HGNASConfig(population_size=1)
        with pytest.raises(ValueError):
            HGNASConfig(function_iterations=0)
