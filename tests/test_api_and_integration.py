"""Tests for the pipeline API (Workspace stages) and an end-to-end integration scenario."""

import numpy as np
import pytest

from repro.hardware import estimate_latency, get_device
from repro.nas import HGNASConfig, dgcnn_architecture, rtx_fast_architecture
from repro.nas.derived import DerivedModel
from repro.nas.trainer import evaluate_classifier, train_classifier
from repro.workspace import Workspace


class TestApi:
    def test_profile_architecture(self):
        profile = Workspace(device="gpu").profile(dgcnn_architecture())
        assert profile.total_latency_ms > 0
        assert profile.device == "rtx3080"

    def test_measure_latency_oracle_vs_noisy(self):
        arch = rtx_fast_architecture()
        ws = Workspace(device="pi")
        clean = ws.measure_latency(arch)
        noisy = ws.measure_latency(arch, noisy=True, seed=1)
        expected = estimate_latency(arch.to_workload(1024, 20, 40), get_device("pi")).total_ms
        assert clean == pytest.approx(expected)
        assert noisy != pytest.approx(clean)

    def test_train_latency_predictor_small(self):
        bundle = Workspace(device="rtx3080").train_predictor(num_samples=60, epochs=15, seed=0)
        assert bundle.device == "rtx3080"
        assert bundle.metrics.num_samples > 0
        prediction = bundle.predictor.predict_latency_ms(dgcnn_architecture())
        assert prediction > 0

    def test_build_model(self, tiny_train):
        model = DerivedModel(rtx_fast_architecture(), num_classes=4, k=4, embed_dim=16)
        from repro.data import collate

        logits = model(collate([tiny_train[0], tiny_train[1]]))
        assert logits.shape == (2, 4)

    def test_search_architecture_invalid_oracle(self, tiny_train, tiny_test):
        with pytest.raises(ValueError):
            Workspace(device="gpu").search(tiny_train, tiny_test, latency_oracle="psychic")


class TestEndToEnd:
    def test_search_then_deploy(self, tiny_train, tiny_test):
        """Full pipeline: search -> derive model -> train -> profile."""
        config = HGNASConfig(
            num_positions=6,
            hidden_dim=12,
            supernet_k=4,
            num_classes=tiny_train.num_classes,
            population_size=4,
            function_iterations=1,
            operation_iterations=2,
            function_epochs=1,
            operation_epochs=1,
            batch_size=5,
            eval_max_batches=1,
            paths_per_function_eval=1,
            deploy_num_points=512,
            deploy_k=10,
            seed=0,
        )
        ws = Workspace(device="jetson-tx2")
        result = ws.search(tiny_train, tiny_test, config=config)
        assert result.best_latency_ms > 0

        # The searched design must be cheaper than DGCNN on the target device.
        device = get_device("jetson-tx2")
        dgcnn_latency = estimate_latency(dgcnn_architecture(6).to_workload(512, 10, 4), device).total_ms
        assert result.best_latency_ms <= dgcnn_latency * 1.5

        model = DerivedModel(result.best_architecture, num_classes=tiny_train.num_classes, k=4, embed_dim=16)
        history = train_classifier(model, tiny_train, epochs=2, batch_size=5, rng=np.random.default_rng(0))
        assert len(history.losses) == 2
        metrics = evaluate_classifier(model, tiny_test, batch_size=5)
        assert 0.0 <= metrics.overall_accuracy <= 1.0

        profile = ws.profile(result.best_architecture, num_points=512, k=10, num_classes=4)
        assert not profile.out_of_memory
