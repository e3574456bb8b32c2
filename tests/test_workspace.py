"""Tests for the Workspace pipeline: defaults, artifact store, registries, caching."""

import dataclasses

import numpy as np
import pytest

import repro.serving.cache as cache_module
import repro.serving.diskcache as diskcache_module
import repro.workspace.pipeline as pipeline_module
from repro.data import InMemoryDataset
from repro.hardware import DeviceSpec, get_device, list_devices, register_device, unregister_device
from repro.nas import (
    HGNASConfig,
    OracleLatencyEvaluator,
    dgcnn_architecture,
    list_latency_evaluators,
    make_latency_evaluator,
    register_latency_evaluator,
    rtx_fast_architecture,
    tx2_fast_architecture,
    unregister_latency_evaluator,
)
from repro.nas.derived import DerivedModel
from repro.nas.latency_eval import EvaluatorRequest
from repro.serving import CachingGraphBuilder, LRUCache, ModelRegistry
from repro.serving.diskcache import deployment_fingerprint
from repro.workspace import (
    DEFAULTS,
    ArtifactStore,
    InferenceDefaults,
    Workspace,
    canonical_key,
    dataset_fingerprint,
)


def tiny_search_config(num_classes: int, seed: int = 0, operation_iterations: int = 2) -> HGNASConfig:
    return HGNASConfig(
        num_positions=6,
        hidden_dim=12,
        supernet_k=4,
        num_classes=num_classes,
        population_size=4,
        function_iterations=1,
        operation_iterations=operation_iterations,
        function_epochs=1,
        operation_epochs=1,
        batch_size=5,
        eval_max_batches=1,
        paths_per_function_eval=1,
        seed=seed,
    )


class TestInferenceDefaults:
    def test_resolve_overrides_only_non_none(self):
        resolved = DEFAULTS.resolve(k=8, num_points=None)
        assert resolved.k == 8
        assert resolved.num_points == DEFAULTS.num_points
        assert DEFAULTS.resolve() is DEFAULTS

    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceDefaults(k=0)
        with pytest.raises(ValueError):
            InferenceDefaults(num_classes=1)

    def test_derived_model_and_deploy_share_one_k(self):
        """The old k=20 (profiling) vs k=10 (deployment) split is gone."""
        arch = rtx_fast_architecture()
        model = DerivedModel(arch, num_classes=4)
        assert model.k == DEFAULTS.k
        deployed = Workspace(device="gpu").deploy(arch, num_classes=4, name="defaults-check")
        assert deployed.k == DEFAULTS.k == 20
        assert deployed.embed_dim == DEFAULTS.embed_dim

    def test_workspace_defaults_flow_into_stages(self):
        custom = InferenceDefaults(num_points=256, k=8, num_classes=10, embed_dim=32)
        ws = Workspace(device="gpu", defaults=custom)
        arch = dgcnn_architecture()
        profile = ws.profile(arch)
        reference = Workspace(device="gpu").profile(arch, num_points=256, k=8, num_classes=10)
        assert profile.total_latency_ms == pytest.approx(reference.total_latency_ms)
        model = ws.derive(arch, num_classes=4)
        assert model.k == 8


class TestArtifactStore:
    def test_key_is_order_independent(self):
        store = ArtifactStore(None)
        assert store.key_for("s", {"a": 1, "b": [2, 3]}) == store.key_for("s", {"b": [2, 3], "a": 1})
        assert store.key_for("s", {"a": 1}) != store.key_for("t", {"a": 1})
        assert canonical_key({"x": 1}) != canonical_key({"x": 2})

    def test_disk_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("stage", {"seed": 0})
        assert store.load("stage", key) is None
        store.save("stage", key, meta={"answer": 42}, arrays={"w": np.arange(4.0)})
        # A fresh store over the same root sees the artifact (disk layer).
        reloaded = ArtifactStore(tmp_path).load("stage", key)
        assert reloaded is not None
        assert reloaded.meta["answer"] == 42
        np.testing.assert_array_equal(reloaded.arrays["w"], np.arange(4.0))
        assert (tmp_path / "stage" / key / "meta.json").exists()
        assert (tmp_path / "stage" / key / "arrays.bin").exists()

    def test_memory_only_store_caches(self):
        store = ArtifactStore(None)
        key = store.key_for("stage", {"seed": 0})
        store.save("stage", key, meta={"v": 1})
        assert store.load("stage", key).meta["v"] == 1
        assert store.stats()["root"] is None
        assert store.stats()["hits"] == 1

    def test_saved_arrays_are_insulated_from_mutation(self):
        store = ArtifactStore(None)
        weights = {"w": np.ones(3)}
        store.save("stage", "k", meta={}, arrays=weights)
        weights["w"] *= 100.0
        np.testing.assert_array_equal(store.load("stage", "k").arrays["w"], np.ones(3))

    def test_discard_and_contains(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("stage", "k", meta={"v": 1})
        assert store.contains("stage", "k")
        assert store.discard("stage", "k")
        assert not store.contains("stage", "k")
        assert not store.discard("stage", "k")

    def test_stats_count_misses(self):
        store = ArtifactStore(None)
        store.load("stage", "nope")
        assert store.stats()["misses"] == 1

    def test_interrupted_save_is_not_a_hit(self, tmp_path):
        """meta.json is the commit marker: arrays without it are ignored."""
        store = ArtifactStore(tmp_path)
        store.save("stage", "k", meta={"v": 1}, arrays={"w": np.ones(2)})
        # Simulate a crash between the arrays write and the meta commit.
        (tmp_path / "stage" / "k" / "meta.json").unlink()
        assert ArtifactStore(tmp_path).load("stage", "k") is None


class TestDeviceRegistry:
    def test_register_custom_spec(self):
        custom = get_device("jetson-tx2").with_overrides(ns_per_flop=0.5)
        custom = dataclasses.replace(custom, name="orin-sim", display_name="Orin (simulated)")
        register_device(custom, aliases=("orin",))
        try:
            assert get_device("orin") is get_device("orin-sim")
            assert "orin-sim" in list_devices()
            latency = Workspace(device="orin").measure_latency(dgcnn_architecture())
            assert latency > 0
        finally:
            unregister_device("orin-sim")
        assert "orin-sim" not in list_devices()
        with pytest.raises(KeyError):
            get_device("orin")

    def test_duplicate_registration_rejected(self):
        custom = dataclasses.replace(get_device("pi"), name="dup-device")
        register_device(custom)
        try:
            with pytest.raises(ValueError):
                register_device(custom)
            register_device(custom, replace=True)  # explicit replace is allowed
        finally:
            unregister_device("dup-device")

    def test_alias_stealing_rejected(self):
        custom = dataclasses.replace(get_device("pi"), name="alias-thief")
        with pytest.raises(ValueError):
            register_device(custom, aliases=("gpu",))
        assert "alias-thief" not in list_devices()
        assert get_device("gpu").name == "rtx3080"


class TestEvaluatorRegistry:
    def test_builtins_registered(self):
        assert {"oracle", "measurement", "predictor"} <= set(list_latency_evaluators())

    def test_make_unknown_raises_value_error(self):
        request = EvaluatorRequest(device=get_device("gpu"))
        with pytest.raises(ValueError):
            make_latency_evaluator("psychic", request)

    def test_custom_evaluator_usable_by_name(self):
        @register_latency_evaluator("constant-test")
        def _factory(request):
            class Constant:
                query_cost_s = 0.0

                def evaluate(self, architecture):
                    return 7.0

            return Constant()

        try:
            request = EvaluatorRequest(device=get_device("gpu"))
            assert make_latency_evaluator("constant-test", request).evaluate(None) == 7.0
            with pytest.raises(ValueError):
                register_latency_evaluator("constant-test", _factory)
        finally:
            unregister_latency_evaluator("constant-test")
        assert "constant-test" not in list_latency_evaluators()

    def test_oracle_factory_matches_direct_construction(self):
        device = get_device("pi")
        request = EvaluatorRequest(device=device, num_points=128, k=8, num_classes=10)
        via_registry = make_latency_evaluator("oracle", request)
        direct = OracleLatencyEvaluator(device, num_points=128, k=8, num_classes=10)
        arch = dgcnn_architecture()
        assert via_registry.evaluate(arch) == pytest.approx(direct.evaluate(arch))


class TestPredictorCaching:
    def test_second_call_skips_training(self, tmp_path, monkeypatch):
        calls = {"train": 0}
        real_train = pipeline_module.train_predictor

        def counting_train(*args, **kwargs):
            calls["train"] += 1
            return real_train(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "train_predictor", counting_train)

        ws = Workspace(device="gpu", root=tmp_path)
        first = ws.train_predictor(num_samples=40, epochs=4, seed=0)
        second = ws.train_predictor(num_samples=40, epochs=4, seed=0)
        assert calls["train"] == 1

        # A fresh workspace over the same root restores from disk.
        restored = Workspace(device="gpu", root=tmp_path).train_predictor(num_samples=40, epochs=4, seed=0)
        assert calls["train"] == 1
        arch = dgcnn_architecture()
        assert first.predictor.predict_latency_ms(arch) == pytest.approx(
            restored.predictor.predict_latency_ms(arch)
        )
        assert dataclasses.asdict(first.metrics) == dataclasses.asdict(second.metrics)

        # fresh=True bypasses the cache; different inputs re-train.
        ws.train_predictor(num_samples=40, epochs=4, seed=0, fresh=True)
        assert calls["train"] == 2
        ws.train_predictor(num_samples=40, epochs=4, seed=1)
        assert calls["train"] == 3

    def test_different_devices_do_not_share(self, tmp_path):
        ws_gpu = Workspace(device="gpu", root=tmp_path)
        ws_pi = Workspace(device="pi", root=tmp_path)
        gpu = ws_gpu.train_predictor(num_samples=30, epochs=3)
        pi = ws_pi.train_predictor(num_samples=30, epochs=3)
        assert gpu.device == "rtx3080"
        assert pi.device == "raspberry-pi"
        # The device spec is part of the content key: two entries, no sharing.
        assert ws_gpu.store.misses == 1 and ws_pi.store.misses == 1
        assert len(list((tmp_path / "predictor").iterdir())) == 2


class TestSearchCaching:
    def test_repeat_search_is_a_cache_hit(self, tmp_path, tiny_train, tiny_test):
        config = tiny_search_config(tiny_train.num_classes)
        ws = Workspace(device="tx2", root=tmp_path)
        first = ws.search(tiny_train, tiny_test, config=config)
        hits_before = ws.store.hits
        second = Workspace(device="tx2", root=tmp_path).search(tiny_train, tiny_test, config=config)
        assert first.best_architecture.to_dict() == second.best_architecture.to_dict()
        assert first.best_score == pytest.approx(second.best_score)
        assert [dataclasses.asdict(p) for p in first.history] == [dataclasses.asdict(p) for p in second.history]
        ws_hit = ws.search(tiny_train, tiny_test, config=config)
        assert ws.store.hits == hits_before + 1
        assert ws_hit.strategy == "multi-stage"

    def test_predictor_oracle_reuses_cached_predictor(self, tmp_path, tiny_train, tiny_test, monkeypatch):
        calls = {"train": 0}
        real_train = pipeline_module.train_predictor

        def counting_train(*args, **kwargs):
            calls["train"] += 1
            return real_train(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "train_predictor", counting_train)

        kwargs = dict(latency_oracle="predictor", predictor_num_samples=30, predictor_epochs=3)
        ws = Workspace(device="tx2", root=tmp_path)
        ws.search(tiny_train, tiny_test, config=tiny_search_config(tiny_train.num_classes), **kwargs)
        assert calls["train"] == 1

        # A different search (more EA iterations) misses the search cache but
        # reuses the persisted predictor: no re-training.
        other = tiny_search_config(tiny_train.num_classes, operation_iterations=3)
        Workspace(device="tx2", root=tmp_path).search(tiny_train, tiny_test, config=other, **kwargs)
        assert calls["train"] == 1

    def test_dataset_change_invalidates(self, tmp_path, tiny_train, tiny_test):
        config = tiny_search_config(tiny_train.num_classes)
        ws = Workspace(device="tx2", root=tmp_path)
        ws.search(tiny_train, tiny_test, config=config)
        pair = InMemoryDataset(tiny_train.samples[:2], tiny_train.num_classes)
        assert dataset_fingerprint(tiny_train) != dataset_fingerprint(pair)
        key_count = ws.store.stats()["memory_entries"]
        ws.search(InMemoryDataset(tiny_train.samples[:10], tiny_train.num_classes), tiny_test, config=config)
        assert ws.store.stats()["memory_entries"] == key_count + 1

    def test_predictor_oracle_key_includes_workspace_defaults(self, tmp_path, tiny_train, tiny_test):
        """Two workspaces with different defaults must not share predictor-path results."""
        config = tiny_search_config(tiny_train.num_classes)
        kwargs = dict(latency_oracle="predictor", predictor_num_samples=30, predictor_epochs=3)
        small = Workspace(device="tx2", root=tmp_path, defaults=InferenceDefaults(num_points=64, k=8))
        large = Workspace(device="tx2", root=tmp_path, defaults=InferenceDefaults(num_points=512, k=32))
        small.search(tiny_train, tiny_test, config=config, **kwargs)
        large.search(tiny_train, tiny_test, config=config, **kwargs)
        # `large` must re-run (search + predictor misses), not reuse `small`'s
        # artifacts trained for a different deployment scenario.
        assert large.store.hits == 0
        assert large.store.misses == 2

    def test_invalid_oracle_and_strategy(self, tiny_train, tiny_test):
        ws = Workspace(device="tx2")
        with pytest.raises(ValueError):
            ws.search(tiny_train, tiny_test, latency_oracle="psychic")
        with pytest.raises(ValueError):
            ws.search(tiny_train, tiny_test, strategy="three-stage")


class TestDeriveDeployServe:
    def test_trained_derive_is_cached(self, tmp_path, tiny_train, monkeypatch):
        calls = {"fit": 0}
        real_fit = pipeline_module.train_classifier

        def counting_fit(*args, **kwargs):
            calls["fit"] += 1
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "train_classifier", counting_fit)

        arch = tx2_fast_architecture()
        ws = Workspace(device="tx2", root=tmp_path)
        first = ws.derive(arch, tiny_train.num_classes, k=4, embed_dim=16, train_dataset=tiny_train, train_epochs=1)
        second = ws.derive(arch, tiny_train.num_classes, k=4, embed_dim=16, train_dataset=tiny_train, train_epochs=1)
        assert calls["fit"] == 1
        for name, value in first.state_dict().items():
            np.testing.assert_array_equal(value, second.state_dict()[name])
        # Untrained derivation never touches the trainer or the cache.
        ws.derive(arch, tiny_train.num_classes, k=4)
        assert calls["fit"] == 1

    def test_deploy_and_serve_with_warm_engine(self, tmp_path, tiny_train):
        ws = Workspace(device="pi", root=tmp_path)
        deployed = ws.deploy(
            tx2_fast_architecture(),
            num_classes=tiny_train.num_classes,
            name="ws-serve",
            k=4,
            embed_dim=16,
            train_dataset=tiny_train,
            train_epochs=1,
        )
        assert deployed.name in ws.registry
        stream = [sample.points for sample in tiny_train][:4]
        report = ws.serve(stream)
        assert len(report.results) == 4
        # Second wave through the same workspace reuses the warm engine cache.
        again = ws.serve([stream[0]])
        assert again.engine is report.engine
        assert again.results[0].from_cache

    def test_serve_without_deploy_raises(self):
        with pytest.raises(ValueError):
            Workspace(device="pi").serve([np.zeros((8, 3))])

    def test_serve_pool_without_deploy_raises(self):
        with pytest.raises(ValueError, match="call deploy"):
            Workspace(device="pi").serve_pool([np.zeros((8, 3))])

    def test_serve_default_is_last_deployed_even_after_replace(self, tiny_train):
        ws = Workspace(device="pi")
        ws.deploy(tx2_fast_architecture(), num_classes=4, name="a", k=4, embed_dim=16)
        ws.deploy(tx2_fast_architecture(), num_classes=4, name="b", k=4, embed_dim=16)
        # Replacing "a" keeps its registry slot but makes it the most recent.
        ws.deploy(tx2_fast_architecture(), num_classes=4, name="a", k=4, embed_dim=16, replace=True)
        report = ws.serve([tiny_train[0].points])
        assert report.results[0].model == "a"

    def test_direct_registry_register_uses_shared_defaults(self):
        registry = ModelRegistry()
        entry = registry.register("direct", tx2_fast_architecture(), get_device("tx2"), num_classes=4)
        assert entry.k == DEFAULTS.k
        assert entry.embed_dim == DEFAULTS.embed_dim
        assert entry.model.k == DEFAULTS.k


class _KeyComputed(Exception):
    """Stops a stage right after its artifact key is computed."""


class TestSamplerVersionKeys:
    """Every key whose entries depend on random graphs changes with the sampler."""

    @staticmethod
    def _stage_key(monkeypatch, stage: str, run) -> str:
        keys = []
        real_key_for = ArtifactStore.key_for

        def key_for(self, name, inputs):
            key = real_key_for(self, name, inputs)
            if name == stage:
                keys.append(key)
                raise _KeyComputed
            return key

        with monkeypatch.context() as patch, pytest.raises(_KeyComputed):
            patch.setattr(ArtifactStore, "key_for", key_for)
            run()
        return keys[0]

    @staticmethod
    def _edge_key(method: str) -> str:
        builder = CachingGraphBuilder(cache=LRUCache(4))
        points = np.random.default_rng(0).standard_normal((16, 3))
        builder(method, points, np.zeros(16, dtype=np.int64), 4, points=points, layer=0)
        (key,) = builder.cache._entries
        return key

    def _keys(self, monkeypatch, tiny_train, tiny_test) -> dict[str, str]:
        ws = Workspace(device="tx2")
        config = tiny_search_config(tiny_train.num_classes)
        return {
            "search": self._stage_key(monkeypatch, "search", lambda: ws.search(tiny_train, tiny_test, config=config)),
            "derived": self._stage_key(
                monkeypatch,
                "derived",
                lambda: ws.derive(tx2_fast_architecture(), 4, k=4, embed_dim=16, train_dataset=tiny_train),
            ),
            "random_edges": self._edge_key("random"),
            "knn_edges": self._edge_key("knn"),
            "deployment": deployment_fingerprint(
                ModelRegistry().register("m", tx2_fast_architecture(), get_device("tx2"), num_classes=4), "numpy"
            ),
        }

    def test_each_key_changes_with_the_sampler_version(self, monkeypatch, tiny_train, tiny_test):
        before = self._keys(monkeypatch, tiny_train, tiny_test)
        for module in (pipeline_module, cache_module, diskcache_module):
            monkeypatch.setattr(module, "SAMPLER_VERSION", "another-sampler")
        after = self._keys(monkeypatch, tiny_train, tiny_test)
        for name in ("search", "derived", "random_edges", "deployment"):
            assert before[name] != after[name], name
        # KNN edges never touch the sampler: their cached entries stay valid.
        assert before["knn_edges"] == after["knn_edges"]

    def test_coordinate_seeded_random_graphs_have_new_keys(self):
        """Random graphs were once seeded from a hash of each layer's features;
        their edge entries and deployment keys from then must never be served.
        KNN over the coordinates builds the same edges, so its key stays."""
        feature_seeded = {
            "random_edges": "8a5ce19e2c63f6259881281895bddc92",
            "deployment": "66f76a01a34d1101ddcf08e8917986a8",
        }
        deployment = deployment_fingerprint(
            ModelRegistry().register("m", tx2_fast_architecture(), get_device("tx2"), num_classes=4), "numpy"
        )
        assert self._edge_key("random") != feature_seeded["random_edges"]
        assert deployment != feature_seeded["deployment"]
        assert self._edge_key("knn") == "3c6cac45df6d4fbd36e9aebd31f614c2"


class TestTrainingKernelKeys:
    """Keys of trained weights change with the training kernels; serving keys do not."""

    def _keys(self, monkeypatch, tiny_train, tiny_test) -> dict[str, str]:
        keys = TestSamplerVersionKeys()._keys(monkeypatch, tiny_train, tiny_test)
        keys["predictor"] = TestSamplerVersionKeys._stage_key(
            monkeypatch,
            "predictor",
            lambda: Workspace(device="tx2").train_predictor(num_samples=8, num_positions=2, epochs=1),
        )
        return keys

    def test_each_key_changes_with_the_training_kernels(self, monkeypatch, tiny_train, tiny_test):
        before = self._keys(monkeypatch, tiny_train, tiny_test)
        monkeypatch.setattr(pipeline_module, "TRAINING_KERNELS", "other-kernels")
        after = self._keys(monkeypatch, tiny_train, tiny_test)
        for name in ("predictor", "search", "derived"):
            assert before[name] != after[name], name
        # The forward pass is unchanged, so served results stay valid.
        for name in ("random_edges", "knn_edges", "deployment"):
            assert before[name] == after[name], name

    def test_entries_from_the_previous_kernels_miss(self, monkeypatch, tmp_path, tiny_train, tiny_test):
        """Search and derive entries trained by the previous kernels (one random-graph
        draw per cloud, materialized distance/full aggregates) are retrained, not served."""
        config = tiny_search_config(tiny_train.num_classes)

        def run(workspace):
            workspace.search(tiny_train, tiny_test, config=config)
            workspace.derive(tx2_fast_architecture(), 4, k=4, embed_dim=16, train_dataset=tiny_train,
                             train_epochs=1)
            return workspace.store

        with monkeypatch.context() as patch:
            patch.setattr(pipeline_module, "TRAINING_KERNELS", "segment-sum-backward")
            assert run(Workspace(device="tx2", root=tmp_path)).misses == 2
        store = run(Workspace(device="tx2", root=tmp_path))
        assert (store.hits, store.misses) == (0, 2)
        store = run(Workspace(device="tx2", root=tmp_path))
        assert (store.hits, store.misses) == (2, 0)


class TestModelRegistryAdd:
    def test_add_preserves_every_field(self, tiny_train):
        deployed = Workspace(device="tx2").deploy(
            tx2_fast_architecture(), num_classes=tiny_train.num_classes, name="adopt", k=4, slo_ms=1e6
        )
        registry = ModelRegistry()
        adopted = registry.add(deployed)
        assert registry.get("adopt") is adopted
        for field in dataclasses.fields(type(deployed)):
            if field.name == "generation":
                continue
            assert getattr(adopted, field.name) is getattr(deployed, field.name), field.name
        assert adopted.generation == 1

    def test_add_rejects_duplicates_without_replace(self, tiny_train):
        deployed = Workspace(device="tx2").deploy(tx2_fast_architecture(), num_classes=4, name="dup")
        registry = ModelRegistry()
        registry.add(deployed)
        with pytest.raises(ValueError):
            registry.add(deployed)
        replaced = registry.add(deployed, replace=True)
        assert replaced.generation == 2


class TestDeviceArgument:
    def test_device_spec_passthrough(self):
        spec = get_device("gpu")
        ws = Workspace(device=spec)
        assert ws.device is spec
        assert isinstance(ws.device, DeviceSpec)


# ---------------------------------------------------------------------- #
# Concurrent-writer safety (multi-worker pools share one --root)
# ---------------------------------------------------------------------- #
def _store_stress_worker(root, stage, shared_key, writer_id, iterations, errors):
    """One racing process: repeatedly write and read back the same key."""
    try:
        from repro.workspace.store import ArtifactStore

        meta = {"v": 7}
        arrays = {"w": np.full(8, 7.0)}
        for iteration in range(iterations):
            store = ArtifactStore(root)
            # Same key, same content: the content-addressed contract all
            # racing writers of one key obey.
            store.save(stage, shared_key, meta=meta, arrays=arrays)
            store.save(stage, f"own-{writer_id}", meta={"writer": writer_id}, arrays=arrays)
            loaded = ArtifactStore(root).load(stage, shared_key)
            if loaded is not None:  # a racing discard below may blank it
                if loaded.meta != meta or not np.array_equal(loaded.arrays["w"], arrays["w"]):
                    errors.put(f"worker {writer_id} iteration {iteration}: torn read {loaded.meta}")
            if writer_id == 0 and iteration % 5 == 4:
                store.discard(stage, shared_key)
    except Exception as error:  # noqa: BLE001 - reported to the parent
        errors.put(f"worker {writer_id}: {type(error).__name__}: {error}")


class TestArtifactStoreConcurrency:
    def test_racing_writers_never_tear(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        errors = context.Queue()
        shared_key = "deadbeef00112233"
        processes = [
            context.Process(
                target=_store_stress_worker,
                args=(str(tmp_path), "stress", shared_key, writer_id, 20, errors),
            )
            for writer_id in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        failures = []
        while not errors.empty():
            failures.append(errors.get())
        assert not failures, failures
        assert all(process.exitcode == 0 for process in processes)
        # Last write wins: the final state is one writer's complete entry.
        final = ArtifactStore(tmp_path)
        for writer_id in range(4):
            artifact = final.load("stress", f"own-{writer_id}")
            assert artifact is not None and artifact.meta == {"writer": writer_id}
        # No staging litter: every temp file was committed or is orphaned
        # under a unique name that discard/save never confuses with data.
        committed = {"meta.json", "arrays.bin"}
        for entry in (tmp_path / "stress").glob("*/*"):
            assert entry.name in committed or entry.name.startswith("."), entry

    @pytest.mark.parametrize("error", [FileNotFoundError, FileExistsError])
    def test_save_retries_after_racing_discard(self, tmp_path, monkeypatch, error):
        """A discard() racing save's mkdir surfaces as either error; save retries."""
        import repro.workspace.store as store_module

        real_write_arrays = store_module._write_arrays
        calls = []

        def racing_write_arrays(path, arrays):
            calls.append(path)
            if len(calls) == 1:
                raise error("entry directory removed by a concurrent discard")
            return real_write_arrays(path, arrays)

        monkeypatch.setattr(store_module, "_write_arrays", racing_write_arrays)
        store = ArtifactStore(tmp_path)
        store.save("stage", "k", {"v": 1}, {"w": np.arange(3.0)})
        assert len(calls) == 2
        loaded = ArtifactStore(tmp_path).load("stage", "k")
        assert loaded is not None and loaded.meta == {"v": 1}
        np.testing.assert_array_equal(loaded.arrays["w"], np.arange(3.0))
