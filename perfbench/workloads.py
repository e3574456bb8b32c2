"""The two in-process workloads: DGCNN serving and predictor-guided search.

Each workload has the same shape: ``setup()`` is the timed set-up of one
round, ``prepare()`` makes the next op's input (untimed), ``op(input)`` is
one timed op, ``check()`` verifies the outputs of the round (untimed) and
returns the number of mismatches, ``counters()`` reads the program's own
counters for the per-layer table, and ``teardown()`` ends the round.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import shutil

import numpy as np

from common import OUT

#: Logits of the DGCNN deployment for :func:`golden_clouds`, written by
#: ``golden.py`` on the gather→scatter ("materialized") path.
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_dgcnn.json"
#: Tolerance of the golden comparison: float32 summation-order changes pass,
#: a wrong neighbour set, aggregate or linear layer does not.
GOLDEN_RTOL = 1e-4
GOLDEN_ATOL = 1e-4


def deploy_dgcnn():
    """A registry holding the ``dgcnn`` preset (40 classes, k=20, weights seed 0)."""
    from repro.hardware.device import get_device
    from repro.nas.presets import dgcnn_architecture
    from repro.serving.registry import ModelRegistry

    registry = ModelRegistry()
    registry.register(
        name=ServeDgcnn.model,
        architecture=dgcnn_architecture(),
        device=get_device("jetson-tx2"),
        num_classes=40,
        k=20,
        seed=0,
    )
    return registry


def golden_clouds() -> list[np.ndarray]:
    """Fixed clouds, the same for every workload seed."""
    rng = np.random.default_rng([0, 11])
    return [rng.standard_normal((ServeDgcnn.num_points, 3)).astype(np.float32) for _ in range(4)]


class ServeDgcnn:
    """One closed-loop client sends unique 1024-point clouds to DGCNN in-process."""

    #: Its time goes to KD-tree KNN and the gather-max of the fused aggregate.
    probe_components = ("gather", "kdtree")
    #: A run serves 60 to 140 requests: too few for a p99, so both tails
    #: are reported at the fixed rank 0.9.
    tail_ranks = {"latency_p90_ms": 0.9, "latency_p99_ms": 0.9}
    #: Set-ups per run: one per measured round, the rest set up and tear down.
    #: A set-up lasts about a second, so a few more steady its median.
    setups = 5
    model = "dgcnn"
    num_points = 1024
    warmup_requests = 4
    #: Every n-th request is re-run on an uncached reference engine.
    check_every = 10

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 10])
        self.engine = None
        self.samples: list[tuple[np.ndarray, np.ndarray]] = []
        self.served = 0

    def _cloud(self) -> np.ndarray:
        return self.rng.standard_normal((self.num_points, 3)).astype(np.float32)

    def setup(self) -> None:
        from repro.serving.engine import EngineConfig, InferenceEngine

        self.engine = InferenceEngine(deploy_dgcnn(), EngineConfig())
        for _ in range(self.warmup_requests):
            self.engine.submit(self.model, self._cloud())

    def prepare(self) -> np.ndarray:
        return self._cloud()

    def op(self, cloud: np.ndarray) -> None:
        result = self.engine.submit(self.model, cloud)
        if self.served % self.check_every == 0:
            self.samples.append((cloud, result.logits))
        self.served += 1

    def check(self) -> int:
        """Sampled replies must be bit-identical to an uncached engine's
        (cached = uncached), and the measured engine must reproduce the golden
        logits, which a wrong KNN, aggregate or linear kernel changes."""
        from repro.serving.engine import EngineConfig, InferenceEngine

        reference = InferenceEngine(
            self.engine.registry, EngineConfig(result_cache_capacity=0, edge_cache_capacity=0)
        )
        mismatches = sum(
            not np.array_equal(reference.submit(self.model, cloud).logits, logits) for cloud, logits in self.samples
        )
        self.samples.clear()
        golden = json.loads(GOLDEN.read_text())["logits"]
        for cloud, expected in zip(golden_clouds(), golden, strict=True):
            logits = self.engine.submit(self.model, cloud).logits
            mismatches += not np.allclose(logits, expected, rtol=GOLDEN_RTOL, atol=GOLDEN_ATOL)
        return mismatches

    def counters(self) -> dict:
        stats = self.engine.cache_stats()
        model = self.engine.report()["models"][self.model]
        return {
            "serving.engine.batch_size_mean": model["mean_batch_size"],
            "serving.cache.result_hit_share": stats["result"].hit_rate,
            "serving.cache.edge_hit_share": stats["edge"].hit_rate,
        }

    def context(self) -> dict:
        return {"checked_every": self.check_every, "golden_clouds": len(golden_clouds())}

    def teardown(self) -> None:
        self.engine = None
        self.served = 0


class SearchPredictor:
    """Back-to-back predictor-guided searches in a rooted workspace."""

    #: Small matmuls, gathers, KNN on tiny clouds and interpreter work: all of it.
    probe_components = ("matmul", "gather", "kdtree", "json")
    #: A run holds 15 to 35 searches of 1 to 20 evaluations each: no tail
    #: rank is measurable, so both tails are reported at the fixed rank 0.5.
    tail_ranks = {"latency_p90_ms": 0.5, "latency_p99_ms": 0.5}
    #: Set-ups per run, one per measured round: each trains a predictor.
    setups = 3
    population = 8
    operation_iterations = 3

    def __init__(self, seed: int):
        self.seed = seed
        # One fixed sequence for every workload seed: the dataset and the
        # predictor vary with the seed, the searches' own streams do not, so
        # runs on different seeds do comparable work.
        self.search_seeds = itertools.count()
        self.round = 0
        self.root = None
        self.workspace = None
        self.results: list = []
        self.evaluations: list[int] = []
        self.first: dict | None = None
        self.mape: list[float] = []

    def setup(self) -> None:
        from repro.experiments.common import ExperimentScale, load_benchmark_dataset
        from repro.workspace import Workspace

        self.root = OUT / f"search-{self.round}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.round += 1
        self.workspace = Workspace("jetson-tx2", root=self.root)
        self.train, self.val = load_benchmark_dataset(
            ExperimentScale(num_classes=4, samples_per_class=2, num_points=64, seed=self.seed)
        )
        self.bundle = self.workspace.train_predictor(
            num_samples=200, num_positions=6, epochs=40, seed=self.seed, fresh=True
        )
        self.mape.append(float(self.bundle.metrics.mape))

    def prepare(self) -> int:
        return next(self.search_seeds)

    def op(self, search_seed: int) -> None:
        from repro.nas.search import HGNASConfig

        config = HGNASConfig(
            num_positions=6,
            num_classes=self.train.num_classes,
            population_size=self.population,
            function_iterations=1,
            operation_iterations=self.operation_iterations,
            seed=search_seed,
        )
        result = self.workspace.search(
            self.train,
            self.val,
            config=config,
            latency_oracle="predictor",
            predictor=self.bundle.predictor,
            seed=search_seed,
            fresh=True,
            checkpoint=True,
        )
        self.results.append((search_seed, result))

    def check(self) -> int:
        from repro.analysis.validate import validate_architecture
        from repro.nas.evolution import EvolutionConfig

        parents = EvolutionConfig(population_size=self.population).num_parents
        budget = self.population + self.operation_iterations * (self.population - parents)
        mismatches = 0
        for search_seed, result in self.results:
            if self.first is None:
                self.first = {
                    "search_seed": search_seed,
                    "genotype": result.best_architecture.to_dict(),
                    "score": result.best_score,
                }
            spent = result.stage2_history[-1].evaluations if result.stage2_history else -1
            valid = validate_architecture(result.best_architecture).ok
            if not (valid and 0 < result.evaluations <= budget and spent == result.evaluations
                    and math.isfinite(result.best_score)):
                mismatches += 1
            self.evaluations.append(result.evaluations)
        self.results.clear()
        return mismatches

    def counters(self) -> dict:
        return {
            "predictor.val_mape": self.mape[-1],
            "nas.evaluations_per_op": float(np.mean(self.evaluations)) if self.evaluations else 0.0,
        }

    def context(self) -> dict:
        return {"first_search": self.first, "predictor_val_mape": self.mape}

    def teardown(self) -> None:
        self.workspace = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
