"""The :class:`Workspace` — one stateful entry point for the paper's pipeline.

The HGNAS workflow is a pipeline: profile a device, train the GNN latency
predictor, run the hierarchical search, derive and train the winner, deploy
it, serve traffic.  A ``Workspace`` owns everything the stages share — the
target :class:`~repro.hardware.device.DeviceSpec`, one
:class:`~repro.workspace.config.InferenceDefaults`, a content-addressed
:class:`~repro.workspace.store.ArtifactStore`, a
:class:`~repro.serving.registry.ModelRegistry` and a persistent
:class:`~repro.serving.engine.InferenceEngine` — so repeated stage calls
with the same inputs are cache hits (pass ``fresh=True`` to bypass) and the
stages compose: ``search(latency_oracle="predictor")`` reuses the predictor
``train_predictor()`` persisted, ``serve()`` reuses warm engine caches.

Without a ``root`` a workspace keeps its artifacts in memory for its own
lifetime; with one they survive process restarts and are shared across
processes.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.backends import active_backend_name
from repro.data.dataset import InMemoryDataset
from repro.graph.sampling import SAMPLER_VERSION
from repro.hardware.device import DeviceSpec, get_device
from repro.hardware.profiler import ProfileResult, profile_workload
from repro.nas.architecture import Architecture
from repro.nas.derived import DerivedModel
from repro.nas.design_space import DesignSpace, DesignSpaceConfig
from repro.nas.checkpoint import SearchCheckpointer
from repro.nas.evolution import HistoryPoint
from repro.nas.latency_eval import EvaluatorRequest, list_latency_evaluators, make_latency_evaluator
from repro.nas.ops import FunctionSet
from repro.nas.search import HGNAS, HGNASConfig, SearchResult
from repro.nas.trainer import train_classifier
from repro.obs.tracer import trace_span
from repro.predictor.dataset import generate_predictor_dataset
from repro.predictor.metrics import PredictorMetrics
from repro.predictor.model import LatencyPredictor, PredictorConfig
from repro.predictor.train import PredictorTrainingConfig, evaluate_predictor, train_predictor
from repro.serving.engine import EngineConfig, InferenceEngine, InferenceResult
from repro.serving.pool import PoolConfig, WorkerPoolEngine
from repro.serving.registry import DeployedModel, ModelRegistry
from repro.utils.logging import get_logger
from repro.workspace.config import DEFAULTS, InferenceDefaults
from repro.workspace.store import ArtifactStore, array_fingerprint, dataset_fingerprint

__all__ = ["PredictorBundle", "PoolServeReport", "ServeReport", "Workspace"]

_LOGGER = get_logger("workspace")

#: Names how predictors are trained.  Weights trained one graph at a time are
#: not bit-identical to the node-count-grouped minibatch forward's, so the
#: predictor and search artifact keys carry it: artifacts written by an older
#: training path are retrained instead of served as current results.
PREDICTOR_TRAINING_PATH = "node-count-grouped-minibatch"

#: Names the training kernels: the fused gather, pooling and ``distance``/
#: ``full`` backward, leaky ReLU's derivative, and the one-draw-per-size
#: random graphs of training batches.  Their float32 gradients differ from
#: older kernels' in the last bits, and the batched draw is another random
#: stream, so the predictor, search and derived keys carry it.  Serving keys
#: do not: the forward pass is bit-identical, and serving draws its random
#: graphs one cloud at a time.
TRAINING_KERNELS = "fused-distance-full-batched-draw"


@dataclass
class PredictorBundle:
    """A trained predictor with its validation metrics."""

    predictor: LatencyPredictor
    metrics: PredictorMetrics
    device: str


@dataclass
class ServeReport:
    """Results of a served request stream plus the engine that produced them."""

    results: list[InferenceResult]
    telemetry: dict
    engine: InferenceEngine


@dataclass
class PoolServeReport:
    """Results of a request stream served through a multi-process worker pool.

    ``telemetry`` is the fleet-wide report (frontend + every worker's
    shutdown snapshot merged); ``formatted`` its human-readable rendering,
    captured before the pool shut down.
    """

    results: list[InferenceResult]
    telemetry: dict
    formatted: str
    workers: int


def _search_result_to_meta(result: SearchResult) -> dict[str, object]:
    return {
        "best_architecture": result.best_architecture.to_dict(),
        "best_score": result.best_score,
        "best_accuracy": result.best_accuracy,
        "best_latency_ms": result.best_latency_ms,
        "upper_functions": result.upper_functions.to_dict(),
        "lower_functions": result.lower_functions.to_dict(),
        "stage1_history": [dataclasses.asdict(point) for point in result.stage1_history],
        "stage2_history": [dataclasses.asdict(point) for point in result.stage2_history],
        "search_time_s": result.search_time_s,
        "evaluations": result.evaluations,
        "strategy": result.strategy,
    }


def _search_result_from_meta(meta: dict) -> SearchResult:
    return SearchResult(
        best_architecture=Architecture.from_dict(meta["best_architecture"]),
        best_score=float(meta["best_score"]),
        best_accuracy=float(meta["best_accuracy"]),
        best_latency_ms=float(meta["best_latency_ms"]),
        upper_functions=FunctionSet.from_dict(meta["upper_functions"]),
        lower_functions=FunctionSet.from_dict(meta["lower_functions"]),
        stage1_history=[HistoryPoint(**point) for point in meta["stage1_history"]],
        stage2_history=[HistoryPoint(**point) for point in meta["stage2_history"]],
        search_time_s=float(meta["search_time_s"]),
        evaluations=int(meta["evaluations"]),
        strategy=str(meta["strategy"]),
    )


class Workspace:
    """Stateful façade over the profile → predict → search → derive → serve pipeline.

    Args:
        device: Target device name/alias or a built
            :class:`~repro.hardware.device.DeviceSpec`; resolved once and
            shared by every stage.
        root: Directory for the on-disk artifact store.  ``None`` keeps
            artifacts in memory only (stage results still cache within this
            workspace's lifetime, but do not survive the process).
        defaults: The shared :class:`InferenceDefaults`; every stage accepts
            per-call overrides.
        registry: Serving registry to deploy into; a fresh one is created
            when omitted.

    Repeating a stage call with identical inputs returns the persisted
    artifact instead of recomputing (``fresh=True`` bypasses and overwrites).
    """

    def __init__(
        self,
        device: str | DeviceSpec = "jetson-tx2",
        root: str | pathlib.Path | None = None,
        defaults: InferenceDefaults | None = None,
        registry: ModelRegistry | None = None,
    ):
        self.device = device if isinstance(device, DeviceSpec) else get_device(device)
        self.defaults = defaults if defaults is not None else DEFAULTS
        self.store = ArtifactStore(root)
        self.registry = registry if registry is not None else ModelRegistry()
        self._engine: InferenceEngine | None = None
        self._engine_config: EngineConfig | None = None
        self._last_deployed: str | None = None

    @property
    def root(self) -> pathlib.Path | None:
        """The artifact store's on-disk root (``None`` for memory-only)."""
        return self.store.root

    def cache_stats(self) -> dict[str, object]:
        """Artifact-store hit/miss counters."""
        return self.store.stats()

    def _device_key(self) -> dict[str, object]:
        # The full spec, not just the name: two devices registered under the
        # same name with different coefficients must not share artifacts.
        return dataclasses.asdict(self.device)

    # ------------------------------------------------------------------ #
    # Stage 1: profiling / measurement
    # ------------------------------------------------------------------ #
    def profile(
        self,
        architecture: Architecture,
        num_points: int | None = None,
        k: int | None = None,
        num_classes: int | None = None,
    ) -> ProfileResult:
        """Latency breakdown and peak memory of ``architecture`` on this device."""
        with trace_span("workspace.profile", device=self.device.name, backend=active_backend_name()):
            scenario = self.defaults.resolve(num_points=num_points, k=k, num_classes=num_classes)
            workload = architecture.to_workload(scenario.num_points, scenario.k, scenario.num_classes)
            return profile_workload(workload, self.device)

    def measure_latency(
        self,
        architecture: Architecture,
        noisy: bool = False,
        num_points: int | None = None,
        k: int | None = None,
        num_classes: int | None = None,
        seed: int | None = None,
    ) -> float:
        """Latency (ms) on this device, optionally with simulated measurement noise."""
        with trace_span(
            "workspace.measure_latency", device=self.device.name, noisy=noisy, backend=active_backend_name()
        ):
            scenario = self.defaults.resolve(num_points=num_points, k=k, num_classes=num_classes, seed=seed)
            evaluator = make_latency_evaluator(
                "measurement" if noisy else "oracle",
                EvaluatorRequest(
                    device=self.device,
                    num_points=scenario.num_points,
                    k=scenario.k,
                    num_classes=scenario.num_classes,
                    seed=scenario.seed,
                ),
            )
            return float(evaluator.evaluate(architecture))

    # ------------------------------------------------------------------ #
    # Stage 2: latency predictor
    # ------------------------------------------------------------------ #
    def train_predictor(
        self,
        num_samples: int = 400,
        num_positions: int = 12,
        epochs: int = 80,
        seed: int | None = None,
        predictor_config: PredictorConfig | None = None,
        training_config: PredictorTrainingConfig | None = None,
        fresh: bool = False,
    ) -> PredictorBundle:
        """Train (or load the cached) GNN latency predictor for this device.

        Samples ``num_samples`` architectures from the design space, labels
        them with the device's analytical model and fits the predictor.  The
        result is persisted in the artifact store keyed by device, sampling
        scale, both configs and seed, so an identical call skips training.
        """
        with trace_span(
            "workspace.train_predictor", device=self.device.name, backend=active_backend_name()
        ) as span:
            seed = self.defaults.seed if seed is None else seed
            predictor_config = predictor_config or PredictorConfig(
                gcn_dims=(32, 48, 48),
                mlp_dims=(32, 16),
                num_points=self.defaults.num_points,
                k=self.defaults.k,
                seed=seed,
            )
            training_config = training_config or PredictorTrainingConfig(
                epochs=epochs, batch_size=32, learning_rate=1e-2, seed=seed
            )
            space_config = DesignSpaceConfig(
                num_positions=num_positions, k=self.defaults.k, num_points=self.defaults.num_points
            )
            key = self.store.key_for(
                "predictor",
                {
                    "device": self._device_key(),
                    "num_samples": num_samples,
                    "space": dataclasses.asdict(space_config),
                    "predictor_config": dataclasses.asdict(predictor_config),
                    "training_config": dataclasses.asdict(training_config),
                    "seed": seed,
                    "training_path": PREDICTOR_TRAINING_PATH,
                    "training_kernels": TRAINING_KERNELS,
                    # Fused and materialized paths are only allclose-equivalent,
                    # so artifacts from the two must not alias each other.
                    "backend": active_backend_name(),
                },
            )
            if not fresh:
                cached = self.store.load("predictor", key)
                if cached is not None:
                    _LOGGER.info("predictor cache hit (%s)", key)
                    span.attributes["cache_hit"] = True
                    return self._predictor_bundle_from_artifact(cached)
            span.attributes["cache_hit"] = False
            rng = np.random.default_rng(seed)
            dataset = generate_predictor_dataset(DesignSpace(space_config), self.device, num_samples, rng)
            train_split, val_split = dataset.split(0.75, rng)
            predictor = LatencyPredictor(predictor_config)
            train_predictor(predictor, train_split, val_split, training_config)
            metrics = evaluate_predictor(predictor, val_split)
            self.store.save(
                "predictor",
                key,
                meta={
                    "device": self.device.name,
                    "predictor_config": dataclasses.asdict(predictor_config),
                    "target_mean": predictor.target_mean,
                    "target_std": predictor.target_std,
                    "metrics": dataclasses.asdict(metrics),
                },
                arrays=predictor.state_dict(),
            )
            return PredictorBundle(predictor=predictor, metrics=metrics, device=self.device.name)

    def _predictor_bundle_from_artifact(self, artifact) -> PredictorBundle:
        # Pass every stored field through so a PredictorConfig grown later
        # round-trips instead of silently resetting new fields to defaults.
        config_data = dict(artifact.meta["predictor_config"])
        config_data["gcn_dims"] = tuple(config_data["gcn_dims"])
        config_data["mlp_dims"] = tuple(config_data["mlp_dims"])
        config = PredictorConfig(**config_data)
        predictor = LatencyPredictor(config)
        predictor.load_state_dict(dict(artifact.arrays))
        predictor.set_target_normalization(
            float(artifact.meta["target_mean"]), float(artifact.meta["target_std"])
        )
        metrics = PredictorMetrics(**artifact.meta["metrics"])
        return PredictorBundle(predictor=predictor, metrics=metrics, device=str(artifact.meta["device"]))

    # ------------------------------------------------------------------ #
    # Stage 3: architecture search
    # ------------------------------------------------------------------ #
    def search(
        self,
        train_dataset: InMemoryDataset,
        val_dataset: InMemoryDataset,
        config: HGNASConfig | None = None,
        latency_oracle: str = "oracle",
        predictor: LatencyPredictor | None = None,
        seed: int | None = None,
        strategy: str = "multi-stage",
        predictor_num_samples: int = 200,
        predictor_epochs: int = 40,
        fresh: bool = False,
        resume: bool = False,
        checkpoint: bool | None = None,
    ) -> SearchResult:
        """Run (or load the cached) hardware-aware search for this device.

        ``latency_oracle`` names any registered evaluator; with
        ``"predictor"`` and no explicit ``predictor``, the workspace's own
        (cached) :meth:`train_predictor` supplies one, trained with
        ``predictor_num_samples``/``predictor_epochs``.
        Results are keyed by device, search config, oracle, strategy, seed
        and dataset fingerprints, so the genotype and its history survive
        restarts.

        Fault tolerance: with ``checkpoint`` on (the default for rooted
        workspaces), either strategy commits its progress after every
        supernet epoch and EA generation under the same content key, and
        ``resume=True`` picks the committed checkpoint up after a crash —
        the resumed search is bit-identical to an uninterrupted one.  The
        checkpoint is bound to the search config it was written under; the
        content key already covers that config.  Without ``resume``, any
        stale checkpoint is discarded and the search starts over.
        """
        seed = self.defaults.seed if seed is None else seed
        oracle = latency_oracle.strip().lower()
        if oracle not in list_latency_evaluators():
            raise ValueError(
                f"unknown latency oracle '{latency_oracle}'; registered: {list_latency_evaluators()}"
            )
        if strategy not in ("multi-stage", "one-stage"):
            raise ValueError(f"unknown search strategy '{strategy}' (use 'multi-stage' or 'one-stage')")
        config = config or HGNASConfig(num_classes=train_dataset.num_classes, seed=seed)
        # Any evaluator (including custom ones) may consult the workspace's
        # predictor factory when no explicit predictor is given, so the
        # factory's knobs are part of the result's identity in that case.
        may_use_workspace_predictor = predictor is None
        key = self.store.key_for(
            "search",
            {
                "device": self._device_key(),
                # Batched and sequential scoring share one artifact (see
                # HGNASConfig.key_dict), so cached results keep their identity.
                "config": config.key_dict(),
                "oracle": oracle,
                "strategy": strategy,
                "seed": seed,
                "train_data": dataset_fingerprint(train_dataset),
                "val_data": dataset_fingerprint(val_dataset),
                "predictor": array_fingerprint(predictor.state_dict()) if predictor is not None else None,
                # The auto-trained predictor inherits this workspace's
                # defaults (design-space k/num_points), so they are part of
                # the result's identity whenever the factory could run.
                "predictor_training": (
                    {
                        "num_samples": predictor_num_samples,
                        "epochs": predictor_epochs,
                        "training_path": PREDICTOR_TRAINING_PATH,
                        "defaults": self.defaults.key_dict(),
                    }
                    if may_use_workspace_predictor
                    else None
                ),
                # Supernet paths sample random graphs: another sampler's
                # stream is another search.
                "sampler": SAMPLER_VERSION,
                "training_kernels": TRAINING_KERNELS,
                "backend": active_backend_name(),
            },
        )
        with trace_span(
            "workspace.search",
            device=self.device.name,
            oracle=oracle,
            strategy=strategy,
            backend=active_backend_name(),
        ) as span:
            if not fresh:
                cached = self.store.load("search", key)
                if cached is not None:
                    _LOGGER.info("search cache hit (%s)", key)
                    span.attributes["cache_hit"] = True
                    return _search_result_from_meta(cached.meta)
            span.attributes["cache_hit"] = False

            def predictor_factory() -> LatencyPredictor:
                return self.train_predictor(
                    num_samples=predictor_num_samples,
                    num_positions=config.num_positions,
                    epochs=predictor_epochs,
                    seed=seed,
                ).predictor

            search = HGNAS.for_device(
                config,
                train_dataset,
                val_dataset,
                self.device,
                latency_oracle=oracle,
                predictor=predictor,
                predictor_factory=predictor_factory,
                rng=np.random.default_rng(seed),
                seed=seed,
            )
            use_checkpoint = checkpoint if checkpoint is not None else self.store.root is not None
            checkpointer = None
            if use_checkpoint or resume:
                checkpointer = SearchCheckpointer(self.store, key)
                if not resume:
                    checkpointer.clear()
            result = (
                search.run(checkpointer=checkpointer)
                if strategy == "multi-stage"
                else search.run_one_stage(checkpointer=checkpointer)
            )
            span.attributes.update(
                best_score=float(result.best_score),
                search_time_s=float(result.search_time_s),
                evaluations=int(result.evaluations),
            )
            self.store.save("search", key, meta=_search_result_to_meta(result))
            return result

    # ------------------------------------------------------------------ #
    # Stage 4: derive / deploy / serve
    # ------------------------------------------------------------------ #
    def derive(
        self,
        architecture: Architecture,
        num_classes: int,
        k: int | None = None,
        embed_dim: int | None = None,
        seed: int | None = None,
        train_dataset: InMemoryDataset | None = None,
        train_epochs: int = 5,
        train_batch_size: int = 8,
        fresh: bool = False,
    ) -> DerivedModel:
        """Instantiate ``architecture`` as a stand-alone model, optionally trained.

        Trained weights are persisted (keyed by genotype, head configuration
        and training data), so re-deriving the same model loads them instead
        of re-training.  Untrained instantiation is cheap and never cached.
        """
        with trace_span(
            "workspace.derive", device=self.device.name, backend=active_backend_name()
        ) as span:
            scenario = self.defaults.resolve(k=k, embed_dim=embed_dim, seed=seed)
            model = DerivedModel(
                architecture,
                num_classes=num_classes,
                k=scenario.k,
                embed_dim=scenario.embed_dim,
                seed=scenario.seed,
            )
            span.attributes["trained"] = train_dataset is not None
            if train_dataset is None:
                return model
            key = self.store.key_for(
                "derived",
                {
                    "architecture": architecture.to_dict(),
                    "num_classes": num_classes,
                    "k": scenario.k,
                    "embed_dim": scenario.embed_dim,
                    "seed": scenario.seed,
                    "train_data": dataset_fingerprint(train_dataset),
                    "train_epochs": train_epochs,
                    "train_batch_size": train_batch_size,
                    "sampler": SAMPLER_VERSION,
                    "training_kernels": TRAINING_KERNELS,
                    "backend": active_backend_name(),
                },
            )
            if not fresh:
                cached = self.store.load("derived", key)
                if cached is not None:
                    _LOGGER.info("derived-model cache hit (%s)", key)
                    span.attributes["cache_hit"] = True
                    model.load_state_dict(dict(cached.arrays))
                    return model
            span.attributes["cache_hit"] = False
            train_classifier(
                model,
                train_dataset,
                epochs=train_epochs,
                batch_size=train_batch_size,
                rng=np.random.default_rng(scenario.seed),
            )
            self.store.save(
                "derived",
                key,
                meta={
                    "architecture": architecture.to_dict(),
                    "num_classes": num_classes,
                    "k": scenario.k,
                    "embed_dim": scenario.embed_dim,
                    "seed": scenario.seed,
                    "train_epochs": train_epochs,
                    "train_batch_size": train_batch_size,
                },
                arrays=model.state_dict(),
            )
            return model

    def deploy(
        self,
        architecture: Architecture,
        num_classes: int,
        name: str | None = None,
        k: int | None = None,
        embed_dim: int | None = None,
        seed: int | None = None,
        slo_ms: float | None = None,
        train_dataset: InMemoryDataset | None = None,
        train_epochs: int = 5,
        train_batch_size: int = 8,
        replace: bool = False,
        fresh: bool = False,
    ) -> DeployedModel:
        """Derive (via the cache) and register ``architecture`` in this workspace's registry."""
        with trace_span("workspace.deploy", device=self.device.name, backend=active_backend_name()):
            scenario = self.defaults.resolve(k=k, embed_dim=embed_dim, seed=seed)
            model = self.derive(
                architecture,
                num_classes,
                k=scenario.k,
                embed_dim=scenario.embed_dim,
                seed=scenario.seed,
                train_dataset=train_dataset,
                train_epochs=train_epochs,
                train_batch_size=train_batch_size,
                fresh=fresh,
            )
            entry = self.registry.register(
                name=name or architecture.name or "deployed",
                architecture=architecture,
                device=self.device,
                num_classes=num_classes,
                k=scenario.k,
                embed_dim=scenario.embed_dim,
                seed=scenario.seed,
                slo_ms=slo_ms,
                model=model,
                replace=replace,
            )
            # Remembered by name, not registry position: a replace keeps its
            # original insertion slot, so list()[-1] is not "most recent".
            self._last_deployed = entry.name
            return entry

    def engine(self, config: EngineConfig | None = None) -> InferenceEngine:
        """The workspace's persistent inference engine (caches stay warm).

        Created on first use; passing a different ``config`` later rebuilds
        it (and drops the warm caches).
        """
        if self._engine is None or (config is not None and config != self._engine_config):
            self._engine_config = config
            self._engine = InferenceEngine(self.registry, config)
        return self._engine

    def _model_name(self, name: str | None) -> str:
        """``name``, or by default the most recently deployed model still registered."""
        if name is not None:
            return name
        names = self.registry.list()
        if not names:
            raise ValueError("no deployed models in this workspace; call deploy() first")
        return self._last_deployed if self._last_deployed in names else names[-1]

    def serve(
        self,
        clouds: Iterable[np.ndarray] | Sequence[np.ndarray],
        name: str | None = None,
        config: EngineConfig | None = None,
    ) -> ServeReport:
        """Serve a stream of point clouds through a deployed model.

        ``name`` defaults to the most recently deployed model.  Follow-up
        calls reuse the same engine, so result/edge caches stay warm across
        request waves.
        """
        name = self._model_name(name)
        clouds = list(clouds)
        with trace_span(
            "workspace.serve",
            device=self.device.name,
            model=name,
            requests=len(clouds),
            backend=active_backend_name(),
        ):
            engine = self.engine(config)
            results = engine.submit_many(name, clouds)
            return ServeReport(results=results, telemetry=engine.report(), engine=engine)

    def serve_pool(
        self,
        clouds: Iterable[np.ndarray] | Sequence[np.ndarray],
        name: str | None = None,
        config: EngineConfig | None = None,
        pool_config: PoolConfig | None = None,
    ) -> PoolServeReport:
        """Serve a stream through a multi-process worker pool.

        Spawns ``pool_config.workers`` processes, each hosting a full
        engine over this workspace's registry, serves the stream across
        them, then drains and shuts the pool down.  A rooted workspace
        hosts the shared cross-process cache tier under
        ``<root>/serving_cache``, so cached results survive the pool and
        warm the next one.
        """
        name = self._model_name(name)
        clouds = list(clouds)
        pool_config = pool_config or PoolConfig()
        with trace_span(
            "workspace.serve_pool",
            device=self.device.name,
            model=name,
            requests=len(clouds),
            workers=pool_config.workers,
            backend=active_backend_name(),
        ):
            with WorkerPoolEngine(
                self.registry, config, pool_config, root=self.store.root
            ) as pool:
                results = pool.submit_many(name, clouds)
                pool.shutdown()
                return PoolServeReport(
                    results=results,
                    telemetry=pool.report(),
                    formatted=pool.format_report(),
                    workers=pool_config.workers,
                )
