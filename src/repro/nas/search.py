"""The HGNAS multi-stage hierarchical search (paper Alg. 1) and ablations.

Stage 1 (*function search*) trains the supernet with uniformly sampled
operations and functions, then runs an evolutionary search over pairs of
shared function sets (upper / lower half) that maximise weight-sharing
validation accuracy.  Stage 2 (*operation search*) re-initialises and
pre-trains the supernet with the winning function sets fixed, then runs a
multi-objective evolutionary search over operation assignments scored by
Eq. 3 (validation accuracy and predicted/measured latency under the
hardware constraint).

A one-stage baseline (:meth:`HGNAS.run_one_stage`) searches the joint
operation+function space with the same budget, reproducing the Fig. 9(b)
ablation; the latency oracle is pluggable (analytical oracle, simulated
on-device measurement, or the GNN predictor), reproducing Fig. 9(a).

Search time is tracked on a :class:`~repro.utils.timer.VirtualClock`
advanced by modelled costs (supernet training epochs, accuracy evaluations,
latency queries) so the time-vs-quality plots are deterministic and
machine-independent.

Both strategies are built from one resumable stage (train a supernet, then
run an evolutionary search on it): :meth:`HGNAS.run` runs two stages,
:meth:`HGNAS.run_one_stage` one.  Given a
:class:`~repro.nas.checkpoint.SearchCheckpointer`, a stage commits after
every supernet epoch and every EA generation, and a search restarted from
the checkpoint replays the remainder *bit-identically* — the checkpoint
captures the shared RNG (and evaluator RNG) state, the virtual clock, the
fitness caches, the supernet and the EA population, so every random draw
and every float addition after the resume point repeats the uninterrupted
run.  Only training commits write the supernet weights and optimiser
slots; no EA generation changes them, so its commit is meta-only and keeps
the weights of the stage's last epoch.  A checkpoint is bound to its
strategy and config (and one-stage ``iterations``); resuming under any
other raises ``ValueError``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.data.dataset import InMemoryDataset
from repro.nas.architecture import Architecture
from repro.nas.checkpoint import SearchCheckpointer
from repro.nas.design_space import DesignSpace, DesignSpaceConfig
from repro.nas.evolution import EvolutionConfig, EvolutionarySearch, EvolutionResult, HistoryPoint
from repro.nas.latency_eval import (
    EvaluatorRequest,
    LatencyEvaluator,
    evaluate_latencies,
    make_latency_evaluator,
)
from repro.nas.objective import ObjectiveConfig, hardware_constrained_score
from repro.nas.ops import FunctionSet, mutate_function_set, random_function_set
from repro.nas.supernet import Supernet, SupernetConfig
from repro.nas.trainer import evaluate_path, train_supernet
from repro.nn.dtype import WIDE_DTYPE
from repro.obs.tracer import get_tracer
from repro.utils.logging import get_logger
from repro.utils.timer import VirtualClock

__all__ = ["HGNASConfig", "SearchResult", "HGNAS"]

_LOGGER = get_logger("nas.search")


def _prefixed(arrays: Mapping[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {f"{prefix}{name}": array for name, array in arrays.items()}


def _subset(arrays: Mapping[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {name[len(prefix):]: array for name, array in arrays.items() if name.startswith(prefix)}


@dataclass(frozen=True)
class HGNASConfig:
    """Configuration of a full HGNAS run.

    The paper-scale settings are ``num_positions=12``, population 20, 1000
    iterations, 50/500 supernet epochs; the defaults here are scaled down so
    a full search completes in seconds on the pure-numpy substrate while
    preserving every algorithmic step.
    """

    # Design space / supernet
    num_positions: int = 12
    hidden_dim: int = 24
    supernet_k: int = 6
    num_classes: int = 10
    input_dim: int = 3
    # Deployment scenario used for hardware evaluation
    deploy_num_points: int = 1024
    deploy_k: int = 20
    # Evolution
    population_size: int = 8
    function_iterations: int = 4
    operation_iterations: int = 8
    # Supernet training
    function_epochs: int = 2
    operation_epochs: int = 3
    batch_size: int = 8
    learning_rate: float = 3e-3
    # Objective (Eq. 1-3)
    alpha: float = 1.0
    beta: float = 0.5
    latency_constraint_ms: float = float("inf")
    # Evaluation budget
    eval_max_batches: int = 2
    paths_per_function_eval: int = 2
    # Simulated costs (advance the virtual clock)
    epoch_cost_s: float = 30.0
    accuracy_eval_cost_s: float = 1.0
    seed: int = 0
    # Score each generation's cohort through the latency evaluator's batched
    # fast path (one fused forward for predictor-style oracles).  Results are
    # identical to the sequential path; disable only to compare the two.
    batched_evaluation: bool = True
    # Statically validate candidates (repro.analysis) before fitness scoring;
    # rejected mutants never reach the supernet/predictor and show up in the
    # nas.analysis.rejected counter.
    validate_candidates: bool = True

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.function_iterations <= 0 or self.operation_iterations <= 0:
            raise ValueError("iteration counts must be positive")
        if self.function_epochs <= 0 or self.operation_epochs <= 0:
            raise ValueError("epoch counts must be positive")
        if self.paths_per_function_eval <= 0 or self.eval_max_batches <= 0:
            raise ValueError("evaluation budgets must be positive")

    def key_dict(self) -> dict:
        """The fields that decide a search's outcome.

        ``batched_evaluation`` is left out: batched and sequential scoring
        are bit-identical by contract.
        """
        return {name: value for name, value in dataclasses.asdict(self).items() if name != "batched_evaluation"}

    def design_space_config(self) -> DesignSpaceConfig:
        """Derived design-space configuration."""
        return DesignSpaceConfig(
            num_positions=self.num_positions,
            k=self.deploy_k,
            num_points=self.deploy_num_points,
            num_classes=self.num_classes,
            input_dim=self.input_dim,
        )

    def supernet_config(self) -> SupernetConfig:
        """Derived supernet configuration."""
        return SupernetConfig(
            num_positions=self.num_positions,
            hidden_dim=self.hidden_dim,
            k=self.supernet_k,
            num_classes=self.num_classes,
            input_dim=self.input_dim,
            seed=self.seed,
        )


@dataclass
class SearchResult:
    """Outcome of an HGNAS run."""

    best_architecture: Architecture
    best_score: float
    best_accuracy: float
    best_latency_ms: float
    upper_functions: FunctionSet
    lower_functions: FunctionSet
    stage1_history: list[HistoryPoint] = field(default_factory=list)
    stage2_history: list[HistoryPoint] = field(default_factory=list)
    search_time_s: float = 0.0
    evaluations: int = 0
    strategy: str = "multi-stage"

    @property
    def history(self) -> list[HistoryPoint]:
        """Concatenated stage-1 + stage-2 best-so-far trajectory."""
        return list(self.stage1_history) + list(self.stage2_history)


class HGNAS:
    """Hardware-aware graph neural architecture search."""

    def __init__(
        self,
        config: HGNASConfig,
        train_dataset: InMemoryDataset,
        val_dataset: InMemoryDataset,
        latency_evaluator: LatencyEvaluator,
        objective: ObjectiveConfig | None = None,
        rng: np.random.Generator | None = None,
        clock: VirtualClock | None = None,
    ):
        self.config = config
        self.train_dataset = train_dataset
        self.val_dataset = val_dataset
        self.latency_evaluator = latency_evaluator
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.clock = clock if clock is not None else VirtualClock()
        self.design_space = DesignSpace(config.design_space_config())
        self.objective = objective or ObjectiveConfig(
            alpha=config.alpha,
            beta=config.beta,
            latency_constraint_ms=config.latency_constraint_ms,
            latency_scale_ms=self._default_latency_scale(),
        )
        self._accuracy_cache: dict[tuple, float] = {}
        self._latency_cache: dict[tuple, float] = {}
        # Latencies computed by a batched query but not yet "paid for":
        # _latency() charges the clock when each one is first consumed, so
        # the clock sees the same sequence of additions as sequential
        # evaluation (summation order matters for float equality).
        self._prefetched_latencies: dict[tuple, float] = {}
        # Architecture behind every cache key, so the caches above can be
        # serialized into a checkpoint (keys are tuples, architectures have
        # to_dict/from_dict).
        self._arch_by_key: dict[tuple, Architecture] = {}

    @classmethod
    def for_device(
        cls,
        config: HGNASConfig,
        train_dataset: InMemoryDataset,
        val_dataset: InMemoryDataset,
        device,
        latency_oracle: str = "oracle",
        predictor=None,
        predictor_factory=None,
        objective: ObjectiveConfig | None = None,
        rng: np.random.Generator | None = None,
        clock: VirtualClock | None = None,
        seed: int | None = None,
    ) -> "HGNAS":
        """Build a search whose latency oracle is resolved from the evaluator registry.

        ``latency_oracle`` names any evaluator registered through
        :func:`repro.nas.latency_eval.register_latency_evaluator` (built-ins:
        ``"oracle"``, ``"measurement"``, ``"predictor"``).  The deployment
        scenario (``deploy_num_points``/``deploy_k``/``num_classes``) is taken
        from ``config``; ``seed`` (defaulting to ``config.seed``) seeds
        stochastic oracles, and ``predictor``/``predictor_factory`` feed
        predictor-style ones.
        """
        request = EvaluatorRequest(
            device=device,
            num_points=config.deploy_num_points,
            k=config.deploy_k,
            num_classes=config.num_classes,
            seed=config.seed if seed is None else seed,
            predictor=predictor,
            predictor_factory=predictor_factory,
        )
        evaluator = make_latency_evaluator(latency_oracle, request)
        return cls(config, train_dataset, val_dataset, evaluator, objective=objective, rng=rng, clock=clock)

    def _default_latency_scale(self) -> float:
        """Normalise the latency term by DGCNN's latency on the target device."""
        from repro.nas.presets import dgcnn_architecture

        reference = dgcnn_architecture(self.config.num_positions)
        scale = self.latency_evaluator.evaluate(reference)
        return max(float(scale), 1e-6)

    # ------------------------------------------------------------------ #
    # Checkpoint restore
    # ------------------------------------------------------------------ #
    def _encode_arch_cache(self, cache: dict[tuple, float]) -> list:
        return [[self._arch_by_key[key].to_dict(), float(value)] for key, value in cache.items()]

    def _decode_arch_cache(self, payload: list) -> dict[tuple, float]:
        cache: dict[tuple, float] = {}
        for document, value in payload:
            architecture = Architecture.from_dict(document)
            key = architecture.key()
            self._arch_by_key[key] = architecture
            cache[key] = float(value)
        return cache

    def _resume(
        self, checkpointer: SearchCheckpointer | None, identity: dict
    ) -> tuple[dict, dict[str, np.ndarray]]:
        """Restore the committed checkpoint's search state; ``({}, {})`` if there is none.

        ``identity`` (strategy and config binding) must match the one the
        checkpoint was committed under.
        """
        restored = checkpointer.load() if checkpointer is not None else None
        if restored is None:
            return {}, {}
        meta, arrays = restored
        if {name: meta.get(name) for name in identity} != identity:
            raise ValueError(
                f"checkpoint {checkpointer.key!r} belongs to another search (a {meta.get('strategy')!r} run), "
                f"cannot resume a {identity['strategy']!r} search with this config from it"
            )
        self.rng.bit_generator.state = meta["rng_state"]
        self.clock.now = float(meta["clock_s"])
        evaluator_rng = getattr(self.latency_evaluator, "rng", None)
        if evaluator_rng is not None and "evaluator_rng_state" in meta:
            evaluator_rng.bit_generator.state = meta["evaluator_rng_state"]
        self._accuracy_cache = self._decode_arch_cache(meta["accuracy_cache"])
        self._latency_cache = self._decode_arch_cache(meta["latency_cache"])
        _LOGGER.info(
            "resuming %s search from checkpoint: phase=%s progress=%d clock=%.1fs",
            identity["strategy"], meta["phase"], meta["progress"], self.clock.now,
        )
        return meta, arrays

    @staticmethod
    def _encode_pair(pair: tuple[FunctionSet, FunctionSet]) -> dict:
        return {"upper": pair[0].to_dict(), "lower": pair[1].to_dict()}

    @staticmethod
    def _decode_pair(document) -> tuple[FunctionSet, FunctionSet]:
        return (FunctionSet.from_dict(document["upper"]), FunctionSet.from_dict(document["lower"]))

    def _path_accuracy(self, supernet: Supernet, architecture: Architecture) -> float:
        key = architecture.key()
        self._arch_by_key.setdefault(key, architecture)
        if key not in self._accuracy_cache:
            self._accuracy_cache[key] = evaluate_path(
                supernet,
                architecture,
                self.val_dataset,
                batch_size=self.config.batch_size,
                max_batches=self.config.eval_max_batches,
            )
            self.clock.advance(self.config.accuracy_eval_cost_s)
        return self._accuracy_cache[key]

    def _latency(self, architecture: Architecture) -> float:
        key = architecture.key()
        self._arch_by_key.setdefault(key, architecture)
        if key not in self._latency_cache:
            if key in self._prefetched_latencies:
                self._latency_cache[key] = self._prefetched_latencies.pop(key)
            else:
                self._latency_cache[key] = float(self.latency_evaluator.evaluate(architecture))
            self.clock.advance(self.latency_evaluator.query_cost_s)
        return self._latency_cache[key]

    def _latency_many(self, architectures: list[Architecture]) -> None:
        """Prefetch latencies for ``architectures`` in one batched query.

        Unknown architectures (first occurrence wins, so stochastic
        evaluators draw noise in the same order as the sequential path) are
        scored through :func:`evaluate_latencies`.  The clock is *not*
        advanced here — :meth:`_latency` charges ``query_cost_s`` when each
        prefetched value is first consumed, preserving the sequential
        path's exact interleaving of clock additions.
        """
        pending: dict[tuple, Architecture] = {}
        for architecture in architectures:
            key = architecture.key()
            self._arch_by_key.setdefault(key, architecture)
            if (
                key not in self._latency_cache
                and key not in self._prefetched_latencies
                and key not in pending
            ):
                pending[key] = architecture
        if not pending:
            return
        latencies = evaluate_latencies(self.latency_evaluator, list(pending.values()))
        for key, latency in zip(pending, latencies):
            self._prefetched_latencies[key] = float(latency)

    def _objective(self, supernet: Supernet, architecture: Architecture) -> float:
        latency_ms = self._latency(architecture)
        if latency_ms >= self.objective.latency_constraint_ms:
            # Candidates violating the constraint are rejected without
            # spending an accuracy evaluation (paper Sec. III-C).
            return 0.0
        accuracy = self._path_accuracy(supernet, architecture)
        return hardware_constrained_score(accuracy, latency_ms, self.objective)

    def _objective_many(self, supernet: Supernet, architectures: list[Architecture]) -> np.ndarray:
        """Eq. 3 scores for a whole cohort, latencies batched up front.

        Latency queries are fused into one :meth:`_latency_many` call (the
        big win with the GNN predictor oracle); accuracy evaluations keep
        their per-architecture cache-and-clock flow, and constraint
        violators are still rejected without an accuracy evaluation, so the
        scores and clock total match the sequential path exactly.
        """
        self._latency_many(architectures)
        return np.array(
            [self._objective(supernet, architecture) for architecture in architectures],
            dtype=WIDE_DTYPE,
        )

    # ------------------------------------------------------------------ #
    # Evolutionary searches
    # ------------------------------------------------------------------ #
    def _function_search(self, supernet: Supernet) -> EvolutionarySearch:
        """Stage 1: pairs of shared (upper, lower) function sets, scored by accuracy."""

        def initialize(rng: np.random.Generator) -> tuple[FunctionSet, FunctionSet]:
            return (random_function_set(rng), random_function_set(rng))

        def mutate(pair: tuple[FunctionSet, FunctionSet], rng: np.random.Generator) -> tuple[FunctionSet, FunctionSet]:
            upper, lower = pair
            if rng.random() < 0.5:
                return (mutate_function_set(upper, rng), lower)
            return (upper, mutate_function_set(lower, rng))

        def crossover(
            pair_a: tuple[FunctionSet, FunctionSet],
            pair_b: tuple[FunctionSet, FunctionSet],
            rng: np.random.Generator,
        ) -> tuple[FunctionSet, FunctionSet]:
            return (pair_a[0], pair_b[1]) if rng.random() < 0.5 else (pair_b[0], pair_a[1])

        def evaluate(pair: tuple[FunctionSet, FunctionSet]) -> float:
            upper, lower = pair
            accuracies = []
            for _ in range(self.config.paths_per_function_eval):
                path = self.design_space.random_architecture(self.rng, upper, lower)
                accuracies.append(self._path_accuracy(supernet, path))
            return float(np.mean(accuracies))

        def key(pair: tuple[FunctionSet, FunctionSet]):
            return (tuple(sorted(pair[0].to_dict().items())), tuple(sorted(pair[1].to_dict().items())))

        return EvolutionarySearch(
            EvolutionConfig(population_size=self.config.population_size),
            initialize=initialize,
            mutate=mutate,
            evaluate=evaluate,
            crossover=crossover,
            key=key,
            rng=self.rng,
            clock=self.clock,
        )

    def _architecture_validator(self):
        """Static accept/reject hook for architecture-genotype searches.

        Checks each candidate against the deployment scenario *before* any
        fitness scoring (supernet forward or predictor query).  Stage-1
        searches operate on function-set pairs, not architectures, and every
        function-set pair is valid by construction, so only the
        architecture-level searches take this hook.
        """
        if not self.config.validate_candidates:
            return None
        # Imported here, not at module level: repro.analysis depends on
        # repro.nas.architecture, and the eager nas package init would turn
        # a top-level import into a cycle.
        from repro.analysis.validate import validate_architecture

        def validate(architecture: Architecture) -> bool:
            return validate_architecture(
                architecture,
                num_points=self.config.deploy_num_points,
                k=self.config.deploy_k,
                num_classes=self.config.num_classes,
            ).ok

        return validate

    def _architecture_search(
        self, supernet: Supernet, upper: FunctionSet | None = None, lower: FunctionSet | None = None
    ) -> EvolutionarySearch:
        """Eq. 3 search over architectures: operations only with fixed
        function sets (stage 2), operations and functions jointly without
        them (one-stage baseline)."""
        joint = upper is None

        def initialize(rng: np.random.Generator) -> Architecture:
            return self.design_space.random_architecture(rng, upper, lower)

        def mutate(architecture: Architecture, rng: np.random.Generator) -> Architecture:
            if joint and rng.random() >= 0.5:
                return self.design_space.mutate_functions(architecture, rng)
            return self.design_space.mutate_operations(architecture, rng)

        def crossover(a: Architecture, b: Architecture, rng: np.random.Generator) -> Architecture:
            return self.design_space.crossover_operations(a, b, rng)

        def evaluate(architecture: Architecture) -> float:
            return self._objective(supernet, architecture)

        def evaluate_many(architectures: list[Architecture]) -> np.ndarray:
            return self._objective_many(supernet, architectures)

        return EvolutionarySearch(
            EvolutionConfig(population_size=self.config.population_size),
            initialize=initialize,
            mutate=mutate,
            evaluate=evaluate,
            crossover=crossover,
            key=lambda arch: arch.key(),
            rng=self.rng,
            clock=self.clock,
            evaluate_many=evaluate_many if self.config.batched_evaluation else None,
            validate=self._architecture_validator(),
        )

    # ------------------------------------------------------------------ #
    # Resumable stages and full runs
    # ------------------------------------------------------------------ #
    def _stage(
        self,
        phases: tuple[str, str],
        epochs: int,
        functions: tuple[FunctionSet | None, FunctionSet | None],
        make_search: Callable[[Supernet], EvolutionarySearch],
        iterations: int,
        codec: tuple[Callable, Callable],
        checkpointer: SearchCheckpointer | None,
        identity: dict,
        restored: tuple[dict, dict[str, np.ndarray]],
    ) -> tuple[Supernet, EvolutionResult]:
        """Train a fresh supernet, then run an EA on it; commit after every
        epoch and generation.

        ``phases`` names the training and the EA phase.  Supernet paths
        keep ``functions`` fixed where given.  A ``restored`` checkpoint
        committed in one of ``phases`` is resumed: mid-training (weights,
        optimiser slots, next epoch; after the last epoch only the clock
        charge remains) or mid-EA (weights and population).  ``identity``
        (strategy, config binding and earlier stages' ``results``) travels
        in every commit's meta; ``codec`` encodes/decodes one EA genotype.
        """
        train_phase, search_phase = phases
        meta, arrays = restored
        phase = meta.get("phase")
        supernet = Supernet(self.config.supernet_config())
        if phase in phases:
            supernet.load_state_dict(_subset(arrays, "supernet."))
            supernet.set_rng_state(meta["supernet_rng"])
        encode, decode = codec

        def commit(progress: int, optimizer=None) -> None:
            # Training commits pass the optimiser and write the weights; EA
            # commits do not, and keep the weights of the last training
            # commit, which no EA generation changes.
            if checkpointer is None:
                return
            state = dict(
                identity,
                phase=search_phase if optimizer is None else train_phase,
                progress=int(progress),
                rng_state=self.rng.bit_generator.state,
                clock_s=float(self.clock.now),
                accuracy_cache=self._encode_arch_cache(self._accuracy_cache),
                latency_cache=self._encode_arch_cache(self._latency_cache),
                supernet_rng=supernet.rng_state(),
            )
            evaluator_rng = getattr(self.latency_evaluator, "rng", None)
            if evaluator_rng is not None:
                state["evaluator_rng_state"] = evaluator_rng.bit_generator.state
            if optimizer is None:
                state["ea_state"] = search.state_dict(encode)
                checkpointer.save(state)
            else:
                state_arrays = _prefixed(supernet.state_dict(), "supernet.")
                state_arrays.update(_prefixed(optimizer.state_dict(), "optimizer."))
                checkpointer.save(state, state_arrays)

        if phase != search_phase:
            _LOGGER.info("%s: training the supernet for %d epochs", train_phase, epochs)
            # A new supernet makes every cached path accuracy stale.
            self._accuracy_cache.clear()
            resumed = phase == train_phase
            with get_tracer().span(f"nas.search.{train_phase}", epochs=epochs):
                train_supernet(
                    supernet,
                    self.train_dataset,
                    lambda rng: supernet.random_path(rng, *functions),
                    epochs=epochs,
                    batch_size=self.config.batch_size,
                    lr=self.config.learning_rate,
                    rng=self.rng,
                    start_epoch=int(meta["progress"]) + 1 if resumed else 0,
                    optimizer_state=_subset(arrays, "optimizer.") if resumed else None,
                    on_epoch=commit,
                )
                # Clock invariant: training is charged once, after the
                # epoch loop, so epoch commits carry the pre-training clock
                # and a resumed run lands on the same single addition.
                self.clock.advance(epochs * self.config.epoch_cost_s)

        _LOGGER.info("%s: evolutionary search for %d generations", search_phase, iterations)
        with get_tracer().span(f"nas.search.{search_phase}", iterations=iterations) as span:
            search = make_search(supernet)
            if phase == search_phase:
                search.load_state_dict(meta["ea_state"], decode)
            result = search.run(iterations, on_generation=commit)
            span.attributes.update(best_score=float(result.best_score), evaluations=result.evaluations)
        return supernet, result

    def run(self, checkpointer: SearchCheckpointer | None = None) -> SearchResult:
        """Run the multi-stage hierarchical search (Alg. 1).

        With a ``checkpointer``, progress is committed after every supernet
        epoch and every EA generation, and a run constructed identically
        (same config, datasets, evaluator, fresh ``rng``/``clock``) resumes
        from the committed state bit-identically.  A checkpoint of another
        strategy or config is refused.  The checkpoint entry is cleared
        once the search completes.
        """
        identity = {"strategy": "multi-stage", "config": self.config.key_dict()}
        restored = self._resume(checkpointer, identity)
        # Stage-1 outcome; present in checkpoints committed during stage 2.
        results = restored[0].get("results", {})
        if not results:
            _, stage1 = self._stage(
                ("stage1_supernet", "stage1_functions"), self.config.function_epochs, (None, None),
                self._function_search, self.config.function_iterations, (self._encode_pair, self._decode_pair),
                checkpointer, dict(identity, results={}), restored,
            )
            history = [dataclasses.asdict(point) for point in stage1.history]
            results = {**self._encode_pair(stage1.best), "stage1_history": history}
        upper, lower = self._decode_pair(results)
        supernet, stage2 = self._stage(
            ("stage2_supernet", "stage2_operations"), self.config.operation_epochs, (upper, lower),
            lambda supernet: self._architecture_search(supernet, upper, lower), self.config.operation_iterations,
            (Architecture.to_dict, Architecture.from_dict), checkpointer, dict(identity, results=results), restored,
        )
        stage1_history = [HistoryPoint(**point) for point in results["stage1_history"]]
        return self._finish(checkpointer, supernet, stage2, stage1_history, "multi-stage")

    def run_one_stage(
        self, iterations: int | None = None, checkpointer: SearchCheckpointer | None = None
    ) -> SearchResult:
        """One-stage baseline: jointly search operations and functions.

        Used for the Fig. 9(b) ablation.  The supernet is trained once with
        fully random paths (same total epoch budget as the two stages of the
        hierarchical strategy) and a single EA explores the joint space.
        Checkpoint/resume semantics match :meth:`run`; ``iterations`` is
        part of the checkpoint's binding.
        """
        iterations = iterations or (self.config.function_iterations + self.config.operation_iterations)
        identity = {"strategy": "one-stage", "config": dict(self.config.key_dict(), iterations=iterations)}
        supernet, result = self._stage(
            ("one_stage_supernet", "one_stage_search"), self.config.function_epochs + self.config.operation_epochs,
            (None, None), self._architecture_search, iterations, (Architecture.to_dict, Architecture.from_dict),
            checkpointer, dict(identity, results={}), self._resume(checkpointer, identity),
        )
        return self._finish(checkpointer, supernet, result, [], "one-stage")

    def _finish(
        self,
        checkpointer: SearchCheckpointer | None,
        supernet: Supernet,
        result: EvolutionResult,
        stage1_history: list[HistoryPoint],
        strategy: str,
    ) -> SearchResult:
        """Score the winner, clear the checkpoint and assemble the result.

        The winner carries its function sets: stage 2 keeps stage 1's fixed.
        """
        best = result.best
        best_latency = self._latency(best)
        best_accuracy = self._path_accuracy(supernet, best)
        if checkpointer is not None:
            checkpointer.clear()
        return SearchResult(
            best_architecture=best,
            best_score=result.best_score,
            best_accuracy=best_accuracy,
            best_latency_ms=best_latency,
            upper_functions=best.upper_functions,
            lower_functions=best.lower_functions,
            stage1_history=stage1_history,
            stage2_history=result.history,
            search_time_s=self.clock.now,
            evaluations=result.evaluations,
            strategy=strategy,
        )
