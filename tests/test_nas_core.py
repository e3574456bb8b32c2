"""Tests for the NAS core: ops, architecture genotype, design space, presets,
objective, evolution and visualisation."""

import numpy as np
import pytest

from repro.hardware import estimate_latency, get_device
from repro.nas import (
    AGGREGATOR_TYPES,
    COMBINE_DIMS,
    Architecture,
    DesignSpace,
    DesignSpaceConfig,
    EvolutionConfig,
    EvolutionarySearch,
    FunctionSet,
    ObjectiveConfig,
    OperationType,
    architecture_summary,
    device_acc_architecture,
    device_fast_architecture,
    dgcnn_architecture,
    function_space_size,
    hardware_constrained_score,
    mutate_function_set,
    objective_score,
    pi_fast_architecture,
    random_function_set,
    render_architecture,
    rtx_fast_architecture,
)
from repro.nas.ops import MESSAGE_TYPES, SAMPLE_METHODS


class TestOps:
    def test_table1_candidates(self):
        assert set(AGGREGATOR_TYPES) == {"sum", "min", "max", "mean"}
        assert COMBINE_DIMS == (8, 16, 32, 64, 128, 256)
        assert len(MESSAGE_TYPES) == 7
        assert set(SAMPLE_METHODS) == {"knn", "random"}
        assert len(OperationType.list()) == 4

    def test_function_set_validation(self):
        with pytest.raises(ValueError):
            FunctionSet(aggregator="median")
        with pytest.raises(ValueError):
            FunctionSet(combine_dim=100)
        with pytest.raises(ValueError):
            FunctionSet(sample_method="fps")

    def test_function_set_roundtrip_and_replace(self):
        functions = FunctionSet(aggregator="sum", combine_dim=16)
        assert FunctionSet.from_dict(functions.to_dict()) == functions
        assert functions.replace(combine_dim=32).combine_dim == 32

    def test_function_space_size(self):
        assert function_space_size() == 4 * 7 * 6 * 2 * 2

    def test_random_and_mutate_function_set(self, rng):
        functions = random_function_set(rng)
        mutated = mutate_function_set(functions, rng)
        assert mutated != functions
        with pytest.raises(ValueError):
            mutate_function_set(functions, rng, num_mutations=0)


class TestArchitecture:
    def test_dgcnn_preset_covers_backbone(self):
        arch = dgcnn_architecture(12)
        assert arch.num_positions == 12
        assert arch.num_valid_samples() == 4
        ops = arch.effective_ops()
        kinds = [op.kind for op in ops]
        assert kinds.count("aggregate") == 4
        assert kinds.count("combine") == 4

    def test_adjacent_samples_merge(self):
        arch = Architecture(
            operations=(OperationType.SAMPLE, OperationType.SAMPLE, OperationType.AGGREGATE, OperationType.COMBINE),
        )
        assert arch.num_valid_samples() == 1

    def test_trailing_sample_dropped(self):
        arch = Architecture(operations=(OperationType.AGGREGATE, OperationType.SAMPLE))
        kinds = [op.kind for op in arch.effective_ops()]
        assert kinds == ["sample", "aggregate"]

    def test_implicit_sample_before_aggregate(self):
        arch = Architecture(operations=(OperationType.AGGREGATE,))
        kinds = [op.kind for op in arch.effective_ops()]
        assert kinds == ["sample", "aggregate"]

    def test_skip_connect_grows_dim(self):
        functions = FunctionSet(connect_mode="skip", combine_dim=8)
        arch = Architecture(
            operations=(OperationType.COMBINE, OperationType.CONNECT),
            upper_functions=functions,
            lower_functions=functions,
        )
        assert arch.output_dim() == 8 + 3

    def test_identity_connect_is_noop(self):
        functions = FunctionSet(connect_mode="identity")
        arch = Architecture(
            operations=(OperationType.CONNECT, OperationType.CONNECT),
            upper_functions=functions,
            lower_functions=functions,
        )
        assert arch.effective_ops() == []
        assert arch.output_dim() == 3

    def test_functions_at_halves(self):
        upper = FunctionSet(combine_dim=16)
        lower = FunctionSet(combine_dim=128)
        arch = Architecture(operations=(OperationType.COMBINE,) * 4, upper_functions=upper, lower_functions=lower)
        assert arch.functions_at(0).combine_dim == 16
        assert arch.functions_at(3).combine_dim == 128
        with pytest.raises(IndexError):
            arch.functions_at(4)

    def test_to_workload_and_latency(self):
        arch = dgcnn_architecture()
        workload = arch.to_workload(512, 10, 40)
        assert workload.num_points == 512
        assert workload.count("knn_sample") == 4
        latency = estimate_latency(workload, get_device("gpu")).total_ms
        assert latency > 0

    def test_to_workload_validation(self):
        with pytest.raises(ValueError):
            dgcnn_architecture().to_workload(0, 10, 40)

    def test_serialisation_roundtrip(self):
        arch = rtx_fast_architecture()
        clone = Architecture.from_dict(arch.to_dict())
        assert clone.key() == arch.key()

    def test_random_architecture(self, rng):
        arch = Architecture.random(8, rng)
        assert arch.num_positions == 8
        assert all(op in OperationType.list() for op in arch.operations)

    def test_empty_architecture_rejected(self):
        with pytest.raises(ValueError):
            Architecture(operations=())


class TestPresets:
    @pytest.mark.parametrize("device", ["rtx3080", "i7-8700k", "jetson-tx2", "raspberry-pi"])
    def test_fast_presets_beat_dgcnn(self, device):
        spec = get_device(device)
        dgcnn_latency = estimate_latency(dgcnn_architecture().to_workload(1024, 20, 40), spec).total_ms
        fast_latency = estimate_latency(
            device_fast_architecture(device).to_workload(1024, 20, 40), spec
        ).total_ms
        assert dgcnn_latency / fast_latency > 2.0

    @pytest.mark.parametrize("device", ["rtx3080", "i7-8700k", "jetson-tx2", "raspberry-pi"])
    def test_acc_presets_slower_than_fast(self, device):
        spec = get_device(device)
        fast = estimate_latency(device_fast_architecture(device).to_workload(1024, 20, 40), spec).total_ms
        acc = estimate_latency(device_acc_architecture(device).to_workload(1024, 20, 40), spec).total_ms
        assert acc >= fast

    def test_gpu_designs_have_few_knn(self):
        assert rtx_fast_architecture().num_valid_samples() <= 2
        assert pi_fast_architecture().upper_functions.message_type == "source_pos"

    def test_unknown_device_preset(self):
        with pytest.raises(KeyError):
            device_fast_architecture("tpu")

    def test_dgcnn_preset_minimum_positions(self):
        with pytest.raises(ValueError):
            dgcnn_architecture(4)


class TestDesignSpace:
    def test_space_sizes(self):
        space = DesignSpace(DesignSpaceConfig(num_positions=12))
        assert space.function_space_size(shared=True) == function_space_size() ** 2
        assert space.function_space_size(shared=False) == function_space_size() ** 12

    def test_sharing_reduces_space(self):
        space = DesignSpace(DesignSpaceConfig(num_positions=12))
        assert space.function_space_size(shared=True) < space.function_space_size(shared=False)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DesignSpaceConfig(num_positions=7)
        with pytest.raises(ValueError):
            DesignSpaceConfig(num_classes=1)

    def test_random_architecture_positions(self, rng):
        space = DesignSpace(DesignSpaceConfig(num_positions=8))
        arch = space.random_architecture(rng)
        assert arch.num_positions == 8

    def test_mutation_changes_one_position(self, rng):
        space = DesignSpace(DesignSpaceConfig(num_positions=8))
        arch = space.random_architecture(rng)
        mutated = space.mutate_operations(arch, rng, 1)
        diffs = sum(a is not b for a, b in zip(arch.operations, mutated.operations))
        assert diffs == 1

    def test_mutate_functions_changes_a_half(self, rng):
        space = DesignSpace(DesignSpaceConfig(num_positions=8))
        arch = space.random_architecture(rng)
        mutated = space.mutate_functions(arch, rng)
        assert (mutated.upper_functions != arch.upper_functions) or (
            mutated.lower_functions != arch.lower_functions
        )

    def test_crossover_mixes_parents(self, rng):
        space = DesignSpace(DesignSpaceConfig(num_positions=8))
        a = space.random_architecture(rng)
        b = space.random_architecture(rng)
        child = space.crossover_operations(a, b, rng)
        for i, op in enumerate(child.operations):
            assert op is a.operations[i] or op is b.operations[i]

    def test_crossover_length_mismatch(self, rng):
        space = DesignSpace(DesignSpaceConfig(num_positions=8))
        a = space.random_architecture(rng)
        b = Architecture.random(6, rng)
        with pytest.raises(ValueError):
            space.crossover_operations(a, b, rng)


class TestObjective:
    def test_constraint_zeroes_score(self):
        config = ObjectiveConfig(alpha=1.0, beta=1.0, latency_constraint_ms=10.0, latency_scale_ms=10.0)
        assert hardware_constrained_score(0.9, 15.0, config) == 0.0
        assert hardware_constrained_score(0.9, 5.0, config) == pytest.approx(0.9 - 0.5)

    def test_alpha_beta_tradeoff(self):
        fast_config = ObjectiveConfig(alpha=0.1, beta=1.0, latency_scale_ms=100.0)
        acc_config = ObjectiveConfig(alpha=10.0, beta=1.0, latency_scale_ms=100.0)
        accurate_slow = (0.95, 80.0)
        rough_fast = (0.80, 10.0)
        assert objective_score(*rough_fast, fast_config) > objective_score(*accurate_slow, fast_config)
        assert objective_score(*accurate_slow, acc_config) > objective_score(*rough_fast, acc_config)

    def test_validation(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            ObjectiveConfig(alpha=0.0, beta=0.0)
        with pytest.raises(ValueError):
            objective_score(1.5, 10.0, ObjectiveConfig())
        with pytest.raises(ValueError):
            objective_score(0.5, -1.0, ObjectiveConfig())


class TestEvolution:
    def test_maximises_simple_function(self, rng):
        target = 42

        def initialize(r):
            return int(r.integers(0, 100))

        def mutate(x, r):
            return int(np.clip(x + r.integers(-5, 6), 0, 100))

        search = EvolutionarySearch(
            EvolutionConfig(population_size=10),
            initialize=initialize,
            mutate=mutate,
            evaluate=lambda x: -abs(x - target),
            rng=rng,
        )
        result = search.run(30)
        assert abs(result.best - target) <= 2
        assert result.best_score == pytest.approx(-abs(result.best - target))

    def test_history_monotone_and_clock(self, rng):
        def evaluate(x):
            search.clock.advance(2.0)  # each fresh evaluation charges the clock
            return x

        search = EvolutionarySearch(
            EvolutionConfig(population_size=6),
            initialize=lambda r: float(r.random()),
            mutate=lambda x, r: float(np.clip(x + r.normal(0, 0.1), 0, 1)),
            evaluate=evaluate,
            rng=rng,
        )
        result = search.run(5)
        scores = [point.best_score for point in result.history]
        assert scores == sorted(scores)
        assert result.history[-1].clock_s == pytest.approx(2.0 * result.evaluations)

    def test_cache_avoids_reevaluation(self, rng):
        calls = []

        def evaluate(x):
            calls.append(x)
            return float(x)

        search = EvolutionarySearch(
            EvolutionConfig(population_size=6),
            initialize=lambda r: int(r.integers(0, 3)),
            mutate=lambda x, r: int((x + 1) % 3),
            evaluate=evaluate,
            rng=rng,
        )
        search.run(10)
        assert len(calls) <= 3

    def test_invalid_configs(self, rng):
        with pytest.raises(ValueError):
            EvolutionConfig(population_size=1)
        search = EvolutionarySearch(
            EvolutionConfig(population_size=4),
            initialize=lambda r: 0,
            mutate=lambda x, r: x,
            evaluate=lambda x: 0.0,
            rng=rng,
        )
        with pytest.raises(ValueError):
            search.run(0)


class TestVisualisation:
    def test_render_contains_ops_and_classifier(self):
        text = render_architecture(rtx_fast_architecture())
        assert "KNN" in text
        assert "Classifier" in text

    def test_summary_counts(self):
        summary = architecture_summary(dgcnn_architecture())
        assert summary["num_samples"] == 4
        assert summary["num_aggregates"] == 4
        assert summary["ops"][-1] == "Classifier"
