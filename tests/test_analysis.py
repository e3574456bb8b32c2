"""Tests for :mod:`repro.analysis`: shape checker, linter and their wiring."""

from __future__ import annotations

import json
import textwrap

import numpy as np
import pytest

from repro.analysis import (
    StaticSignature,
    infer_signature,
    trace_architecture,
    validate_architecture,
    validate_genotype,
)
from repro.analysis.lint import (
    ALL_RULES,
    LintViolation,
    lint_paths,
)
from repro.analysis.lint.runner import default_lint_root
from repro.cli import main as cli_main
from repro.data.dataset import Batch
from repro.defaults import DEFAULTS
from repro.hardware.device import get_device
from repro.nas.architecture import Architecture
from repro.nas.derived import DerivedModel
from repro.nas.design_space import DesignSpace, DesignSpaceConfig
from repro.nas.evolution import EvolutionConfig, EvolutionarySearch
from repro.nas.ops import FunctionSet, OperationType
from repro.nas.presets import dgcnn_architecture
from repro.nas.search import HGNAS, HGNASConfig
from repro.nn.tensor import no_grad
from repro.obs import get_metrics, reset_observability
from repro.serving import InferenceEngine, ModelRegistry


# ---------------------------------------------------------------------- #
# Ground truth: what the runtime actually accepts
# ---------------------------------------------------------------------- #
def _one_cloud_batch(num_points: int, input_dim: int, rng: np.random.Generator) -> Batch:
    return Batch(
        points=rng.standard_normal((num_points, input_dim)).astype(np.float32),
        batch=np.zeros(num_points, dtype=np.int64),
        labels=np.zeros(1, dtype=np.int64),
        num_graphs=1,
    )


def _runtime_accepts(
    genotype: dict,
    num_points: int,
    k: int,
    num_classes: int,
    embed_dim: int,
    rng: np.random.Generator,
) -> bool:
    """Build + forward the genotype exactly like a deployment would."""
    try:
        architecture = Architecture.from_dict(genotype)
        model = DerivedModel(
            architecture, num_classes=num_classes, k=k, embed_dim=embed_dim, seed=0
        )
        model.eval()
        batch = _one_cloud_batch(num_points, architecture.input_dim, rng)
        with no_grad():
            model(batch)
        return True
    except (KeyError, TypeError, ValueError):
        return False


def _corrupt(genotype: dict, mode: str, rng: np.random.Generator) -> dict:
    """Apply one modelled corruption class to a valid genotype dict."""
    corrupted = json.loads(json.dumps(genotype))  # deep copy
    half = "upper_functions" if rng.random() < 0.5 else "lower_functions"
    if mode == "unknown-op":
        index = int(rng.integers(0, len(corrupted["operations"])))
        corrupted["operations"][index] = "pool"
    elif mode == "empty-operations":
        corrupted["operations"] = []
    elif mode == "bad-aggregator":
        corrupted[half]["aggregator"] = "median"
    elif mode == "bad-message-type":
        corrupted[half]["message_type"] = "spooky"
    elif mode == "bad-combine-dim":
        corrupted[half]["combine_dim"] = 48
    elif mode == "bad-sample-method":
        corrupted[half]["sample_method"] = "farthest"
    elif mode == "bad-connect-mode":
        corrupted[half]["connect_mode"] = "dense"
    elif mode == "bad-input-dim":
        corrupted["input_dim"] = 0
    elif mode == "missing-functions":
        del corrupted[half]
    else:  # pragma: no cover
        raise ValueError(mode)
    return corrupted


_CORRUPTION_MODES = (
    "unknown-op",
    "empty-operations",
    "bad-aggregator",
    "bad-message-type",
    "bad-combine-dim",
    "bad-sample-method",
    "bad-connect-mode",
    "bad-input-dim",
    "missing-functions",
)


class TestStaticRuntimeAgreement:
    def test_static_accept_reject_matches_runtime_on_random_genotypes(self):
        """Zero false accepts / false rejects over >= 200 sampled cases.

        Cases mix structurally valid random architectures under degenerate
        and healthy deployment scenarios with every modelled corruption
        class; the oracle is an actual DerivedModel construction + forward.
        """
        rng = np.random.default_rng(2023)
        space = DesignSpace(DesignSpaceConfig(num_positions=6))
        scenarios = [
            # (num_points, k, num_classes, embed_dim)
            (8, 4, 4, 8),
            (2, 8, 4, 8),  # k clamps: must NOT be a static reject
            (1, 2, 4, 8),  # knn samples cannot run; random-sample archs can
            (3, 2, 2, 8),
            (8, 4, 1, 8),  # degenerate classifier
            (8, 4, 4, 1),  # degenerate embedding
        ]
        checked = 0
        for case in range(150):
            genotype = space.random_architecture(rng).to_dict()
            if case % 3 != 0:
                genotype = _corrupt(
                    genotype, _CORRUPTION_MODES[case % len(_CORRUPTION_MODES)], rng
                )
            num_points, k, num_classes, embed_dim = scenarios[case % len(scenarios)]
            static_ok = validate_genotype(
                genotype,
                num_points=num_points,
                k=k,
                num_classes=num_classes,
                embed_dim=embed_dim,
            ).ok
            runtime_ok = _runtime_accepts(genotype, num_points, k, num_classes, embed_dim, rng)
            assert static_ok == runtime_ok, (
                f"case {case}: static={static_ok} runtime={runtime_ok} "
                f"scenario={(num_points, k, num_classes, embed_dim)} genotype={genotype}"
            )
            checked += 1
        # Healthy-scenario sweep: purely valid genotypes must all pass both.
        for case in range(80):
            genotype = space.random_architecture(rng).to_dict()
            static_ok = validate_genotype(genotype, num_points=16, k=4).ok
            runtime_ok = _runtime_accepts(genotype, 16, 4, DEFAULTS.num_classes, DEFAULTS.embed_dim, rng)
            assert static_ok and runtime_ok, f"case {case}: genotype={genotype}"
            checked += 1
        assert checked >= 200

    def test_k_larger_than_cloud_warns_but_accepts(self):
        architecture = dgcnn_architecture()
        report = validate_architecture(architecture, num_points=4, k=20)
        assert report.ok
        assert any(diag.code == "k-clamped" for diag in report.warnings)

    def test_knn_single_point_is_rejected_with_position(self):
        architecture = dgcnn_architecture()
        report = validate_architecture(architecture, num_points=1)
        assert not report.ok
        assert all(diag.code == "knn-single-point" for diag in report.errors)
        assert report.errors[0].position >= 0

    def test_dead_trailing_sample_warns(self):
        architecture = Architecture(
            operations=(OperationType.AGGREGATE, OperationType.SAMPLE)
        )
        report = validate_architecture(architecture)
        assert report.ok
        assert any(diag.code == "dead-sample" for diag in report.warnings)

    def test_pointwise_architecture_warns_no_aggregate(self):
        architecture = Architecture(operations=(OperationType.COMBINE,))
        report = validate_architecture(architecture)
        assert report.ok
        assert any(diag.code == "no-aggregate" for diag in report.warnings)


class TestShapes:
    def test_trace_matches_effective_ops_widths(self):
        architecture = dgcnn_architecture()
        shapes = trace_architecture(architecture)
        effective = architecture.effective_ops()
        assert [(s.in_dim, s.out_dim) for s in shapes] == [
            (op.in_dim, op.out_dim) for op in effective
        ]
        assert shapes[-1].out_dim == architecture.output_dim()

    def test_signature_round_trip_and_request_validation(self):
        architecture = dgcnn_architecture()
        signature = infer_signature(architecture, num_classes=10, k=8, embed_dim=32)
        assert signature.uses_knn and signature.min_points == 2
        restored = StaticSignature.from_dict(signature.to_dict())
        assert restored == signature
        assert restored.validate_request(1024, architecture.input_dim) == []
        assert restored.validate_request(1, architecture.input_dim)  # below min_points
        assert restored.validate_request(1024, architecture.input_dim + 1)

    def test_random_sampling_architecture_serves_single_point(self):
        functions = FunctionSet(sample_method="random")
        architecture = Architecture(
            operations=(OperationType.SAMPLE, OperationType.AGGREGATE),
            upper_functions=functions,
            lower_functions=functions,
        )
        signature = infer_signature(architecture, num_classes=4)
        assert signature.min_points == 1 and signature.uses_random

    def test_from_dict_rejects_unknown_format(self):
        data = infer_signature(dgcnn_architecture(), num_classes=4).to_dict()
        data["format"] = "something/else"
        with pytest.raises(ValueError, match="format"):
            StaticSignature.from_dict(data)


# ---------------------------------------------------------------------- #
# Linter: golden diagnostics per rule + waivers + repo gate
# ---------------------------------------------------------------------- #
def _violations_for(tmp_path, source: str, rule_name: str) -> list[LintViolation]:
    fixture = tmp_path / "fixture.py"
    fixture.write_text(textwrap.dedent(source))
    return [v for v in lint_paths([fixture]) if v.rule == rule_name]


class TestLintRules:
    def test_dtype_literal_rule(self, tmp_path):
        violations = _violations_for(
            tmp_path,
            """
            import numpy as np

            a = np.zeros(3, dtype=np.float64)
            b = np.asarray([1.0], dtype=float)
            c = a.astype(float)
            ok = np.zeros(3, dtype=np.int64)
            """,
            "dtype-literal",
        )
        assert [v.line for v in violations] == [4, 5, 6]
        assert "float64" in violations[0].message

    def test_rng_discipline_rule(self, tmp_path):
        violations = _violations_for(
            tmp_path,
            """
            import numpy as np
            from numpy.random import shuffle

            x = np.random.rand(3)
            rng = np.random.default_rng(0)

            def annotated(generator: np.random.Generator) -> None:
                generator.shuffle(x)
            """,
            "rng-discipline",
        )
        assert [v.line for v in violations] == [3, 5]

    def test_obs_metric_naming_rule(self, tmp_path):
        violations = _violations_for(
            tmp_path,
            """
            from repro.obs import get_metrics, get_tracer

            get_metrics().count("bad")
            get_metrics().count("nas.evolution.generations")
            metrics = get_metrics()
            metrics.set_gauge("Nas.Evolution.Best", 1.0)
            with get_tracer().span("x"):
                pass
            with get_tracer().span("workspace.search"):
                pass
            """,
            "obs-metric-naming",
        )
        assert [v.line for v in violations] == [4, 7, 8]

    def test_lazy_export_sync_rule(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        init = package / "__init__.py"
        init.write_text(
            '_LAZY_EXPORTS = {\n'
            '    "Workspace": "repro.workspace",\n'
            '    "totally_missing_name": "repro.workspace",\n'
            '    "also_missing": "repro.no_such_module",\n'
            "}\n"
        )
        violations = [v for v in lint_paths([init]) if v.rule == "lazy-export-sync"]
        messages = "\n".join(v.message for v in violations)
        assert len(violations) == 2
        assert "totally_missing_name" in messages
        assert "unresolvable module" in messages

    def test_unvalidated_index_rule_and_waiver(self, tmp_path):
        violations = _violations_for(
            tmp_path,
            """
            from repro.graph.scatter import scatter, validate_index

            def bad(x, edges):
                return scatter(x, edges, 4, "sum", validated=True)

            def good(x, edges):
                validate_index(edges, 4)
                return scatter(x, edges, 4, "sum", validated=True)

            def waived(x, edges):
                # repro-lint: allow[unvalidated-index] edges validated by the caller
                return scatter(x, edges, 4, "sum", validated=True)

            def unvalidated_kw_false(x, edges):
                return scatter(x, edges, 4, "sum", validated=False)

            def bad_propagate(x, edges):
                return propagate(x, edges, "rel_pos", "max", validated=True)

            def good_propagate(points, x):
                edges = knn_graph(points, 4)
                return propagate(x, edges, "rel_pos", "max", validated=True)
            """,
            "unvalidated-index",
        )
        assert [v.line for v in violations] == [5, 19]

    def test_waiver_without_reason_is_flagged(self, tmp_path):
        violations = _violations_for(
            tmp_path,
            """
            from repro.graph.scatter import scatter

            def waived(x, edges):
                # repro-lint: allow[unvalidated-index]
                return scatter(x, edges, 4, "sum", validated=True)
            """,
            "unvalidated-index",
        )
        # The suppression does not apply (no reason) and the empty waiver is
        # itself reported.
        assert len(violations) == 2
        assert any("no reason" in v.message for v in violations)

    def test_backend_primitive_rule(self, tmp_path):
        violations = _violations_for(
            tmp_path,
            """
            import numpy as np

            def bad_scatter(out, index, values):
                np.add.at(out, index, values)

            def bad_reduce(values, starts, reducer):
                return reducer.reduceat(values, starts, axis=0)

            def bad_extreme(out, index, values):
                np.maximum.at(out, index, values)

            def waived(out, index, values):
                # repro-lint: allow[backend-primitive] fixture exercising the waiver path
                np.add.at(out, index, values)

            def fine(out, index, values):
                out[index] = values
                return np.add(out, values)
            """,
            "backend-primitive",
        )
        assert [v.line for v in violations] == [5, 8, 11]
        assert "segment-reduction" in violations[1].message
        assert "scatter" in violations[0].message

    def test_backend_primitive_rule_exempts_backends_package(self):
        import pathlib

        import repro

        backends_module = pathlib.Path(repro.__file__).parent / "backends.py"
        assert "reduceat" in backends_module.read_text()
        violations = [v for v in lint_paths([backends_module]) if v.rule == "backend-primitive"]
        assert violations == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        violations = lint_paths([broken])
        assert [v.rule for v in violations] == ["syntax-error"]

    def test_repo_is_lint_clean(self):
        """The gate the CI job enforces: zero violations over src/repro."""
        violations = lint_paths()
        assert violations == [], "\n".join(v.format() for v in violations)
        assert default_lint_root().name == "repro"

    def test_rule_names_are_unique_and_documented(self):
        names = [rule.name for rule in ALL_RULES]
        assert len(set(names)) == len(names) == 6
        assert all(rule.description for rule in ALL_RULES)


# ---------------------------------------------------------------------- #
# Evolution wiring: pre-scoring rejection
# ---------------------------------------------------------------------- #
class TestEvolutionValidation:
    @staticmethod
    def _search(validate, seed: int = 0, **kwargs) -> EvolutionarySearch:
        rng = np.random.default_rng(seed)
        return EvolutionarySearch(
            EvolutionConfig(population_size=6),
            initialize=lambda r: int(r.integers(0, 100)),
            mutate=lambda g, r: int(g + r.integers(-3, 4)),
            evaluate=float,
            rng=rng,
            validate=validate,
            **kwargs,
        )

    def test_invalid_candidates_rejected_before_scoring(self):
        reset_observability()
        scored: list[int] = []

        def evaluate(genotype: int) -> float:
            scored.append(genotype)
            return float(genotype)

        search = self._search(lambda g: g % 2 == 0)
        search.evaluate_fn = evaluate
        result = search.run(4)
        assert result.rejections > 0
        assert all(genotype % 2 == 0 for genotype in scored)
        assert get_metrics().counter("nas.analysis.rejected").value == result.rejections

    def test_all_valid_run_matches_unvalidated_run(self):
        """An always-true validator must not perturb the rng stream."""
        baseline = self._search(None).run(5)
        validated = self._search(lambda g: True).run(5)
        assert validated.best == baseline.best
        assert validated.best_score == baseline.best_score
        assert validated.rejections == 0

    def test_unsatisfiable_validator_raises(self):
        search = self._search(lambda g: False)
        with pytest.raises(RuntimeError, match="no valid genotype"):
            search.run(1)

    @staticmethod
    def _hgnas(config: HGNASConfig) -> HGNAS:
        class _UnitLatency:
            def evaluate(self, architecture) -> float:
                return 1.0

        return HGNAS(config, None, None, _UnitLatency())

    def test_hgnas_validator_rejects_knn_for_single_point_scenario(self):
        config = HGNASConfig(num_positions=6, deploy_num_points=1)
        search = self._hgnas(config)
        validate = search._architecture_validator()
        functions = FunctionSet(sample_method="knn")
        knn_arch = Architecture(
            operations=(OperationType.SAMPLE, OperationType.AGGREGATE) * 2,
            upper_functions=functions,
            lower_functions=functions,
        )
        random_arch = Architecture(
            operations=(OperationType.SAMPLE, OperationType.AGGREGATE) * 2,
            upper_functions=functions.replace(sample_method="random"),
            lower_functions=functions.replace(sample_method="random"),
        )
        assert not validate(knn_arch)
        assert validate(random_arch)
        disabled = self._hgnas(HGNASConfig(num_positions=6, validate_candidates=False))
        assert disabled._architecture_validator() is None


# ---------------------------------------------------------------------- #
# Registry / serving wiring: signature cache
# ---------------------------------------------------------------------- #
class TestSignatureCache:
    def test_register_computes_and_persists_signature(self, tmp_path):
        registry = ModelRegistry()
        entry = registry.register(
            "m", dgcnn_architecture(), get_device("jetson-tx2"), num_classes=4, k=8
        )
        assert entry.signature is not None
        assert entry.signature.k == 8 and entry.signature.num_classes == 4
        registry.save(tmp_path)
        loaded = ModelRegistry.load(tmp_path)
        assert loaded.get("m").signature == entry.signature

    def test_engine_rejects_unservable_requests_via_signature(self):
        registry = ModelRegistry()
        registry.register("m", dgcnn_architecture(), get_device("jetson-tx2"), num_classes=4)
        engine = InferenceEngine(registry)
        with pytest.raises(ValueError, match="at least 2"):
            engine.submit("m", np.zeros((1, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="point features"):
            engine.submit("m", np.zeros((8, 5), dtype=np.float32))

    def test_deploy_refuses_statically_invalid_scenario(self):
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="static validation"):
            registry.register(
                "m", dgcnn_architecture(), get_device("jetson-tx2"), num_classes=4, embed_dim=1
            )

    def test_deploy_refuses_inconsistent_model(self):
        registry = ModelRegistry()
        architecture = dgcnn_architecture()
        functions = FunctionSet(sample_method="random", message_type="distance")
        other = Architecture(
            operations=(OperationType.SAMPLE, OperationType.AGGREGATE, OperationType.COMBINE),
            upper_functions=functions,
            lower_functions=functions,
        )
        wrong_model = DerivedModel(other, num_classes=4, k=10)
        with pytest.raises(ValueError, match="inconsistent"):
            registry.register(
                "m",
                architecture,
                get_device("jetson-tx2"),
                num_classes=4,
                k=10,
                model=wrong_model,
            )

    def test_adopted_entry_gains_signature(self):
        registry = ModelRegistry()
        entry = registry.register("m", dgcnn_architecture(), get_device("jetson-tx2"), num_classes=4)
        stripped = entry
        stripped.signature = None
        other = ModelRegistry()
        adopted = other.add(stripped)
        assert adopted.signature is not None


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestAnalysisCli:
    def test_lint_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.name in out

    def test_lint_clean_repo_exits_zero(self, capsys):
        assert cli_main(["lint"]) == 0
        assert "no lint violations" in capsys.readouterr().out

    def test_lint_violations_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert cli_main(["lint", str(bad)]) == 1
        assert "rng-discipline" in capsys.readouterr().out

    def test_lint_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert cli_main(["lint", str(bad), "--rule", "dtype-literal"]) == 0
        assert cli_main(["lint", str(bad), "--rule", "no-such-rule"]) == 2

    def test_check_preset_ok(self, capsys):
        assert cli_main(["check", "fast", "--num-points", "1024"]) == 0
        out = capsys.readouterr().out
        assert "genotype OK" in out and "logits" in out

    def test_check_invalid_scenario_exits_one(self, capsys):
        assert cli_main(["check", "dgcnn", "--num-points", "1"]) == 1
        assert "knn-single-point" in capsys.readouterr().out

    def test_check_genotype_file(self, tmp_path, capsys):
        path = tmp_path / "genotype.json"
        path.write_text(json.dumps(dgcnn_architecture().to_dict()))
        assert cli_main(["check", str(path)]) == 0
        bad = dgcnn_architecture().to_dict()
        bad["operations"][0] = "pool"
        path.write_text(json.dumps(bad))
        assert cli_main(["check", str(path)]) == 1
        assert "unknown-operation" in capsys.readouterr().out

    def test_check_unknown_argument_errors(self, capsys):
        assert cli_main(["check", "no-such-preset-or-file"]) == 2
