"""Generic evolutionary search used by both stages of Alg. 1.

The evolutionary algorithm is genotype-agnostic: the caller supplies
initialisation, mutation, crossover and evaluation callables.  Fitness
evaluations are cached by genotype key, the best-so-far trajectory is
recorded against a (virtual) clock the caller's callables advance, and
ties are broken deterministically, so search runs are fully reproducible.

Selection rules are fixed: the best half of each generation survives as
parents (:data:`PARENT_FRACTION`); a child is a crossover of two parents
with probability :data:`CROSSOVER_PROBABILITY`, and a crossover child is
then mutated with probability :data:`MUTATION_PROBABILITY`.  A child
without crossover is always mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, TypeVar

import numpy as np

from repro.nn.dtype import WIDE_DTYPE
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.utils.timer import VirtualClock

__all__ = ["EvolutionConfig", "HistoryPoint", "EvolutionResult", "EvolutionarySearch"]

Genotype = TypeVar("Genotype")


#: Share of each generation kept as parents (elitist selection).
PARENT_FRACTION = 0.5
#: Chance that a crossover child is also mutated.
MUTATION_PROBABILITY = 0.8
#: Chance that a child is a crossover of two parents.
CROSSOVER_PROBABILITY = 0.5
#: Candidates drawn for one slot before the search gives up on the validator.
MAX_VALIDATION_ATTEMPTS = 32


@dataclass(frozen=True)
class EvolutionConfig:
    """Evolution population (paper default: 20); selection uses the module constants."""

    population_size: int = 20

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")

    @property
    def num_parents(self) -> int:
        """Elite count per generation: :data:`PARENT_FRACTION` of the population,
        at least 2 and at most ``population_size - 1``, so every generation has a child.
        """
        proposed = max(2, int(round(PARENT_FRACTION * self.population_size)))
        return min(proposed, self.population_size - 1)


@dataclass(frozen=True)
class HistoryPoint:
    """Best-so-far snapshot after one generation."""

    iteration: int
    evaluations: int
    best_score: float
    clock_s: float


@dataclass
class EvolutionResult(Generic[Genotype]):
    """Outcome of an evolutionary run."""

    best: Genotype
    best_score: float
    history: list[HistoryPoint] = field(default_factory=list)
    population: list[tuple[Genotype, float]] = field(default_factory=list)
    evaluations: int = 0
    #: Candidates rejected by the static validator before fitness scoring.
    rejections: int = 0


class EvolutionarySearch(Generic[Genotype]):
    """Mutation/crossover EA with fitness caching and elitist selection.

    Fitness is obtained either genotype-by-genotype through ``evaluate`` or
    — when the caller provides ``evaluate_many`` — in one batched call per
    generation, which lets vectorized scorers (e.g. the batched latency
    predictor) amortise their per-call overhead over the whole population.
    Both paths share the per-genotype fitness cache, so the batched search
    is indistinguishable from the sequential one whenever ``evaluate_many``
    returns the same scores as mapping ``evaluate`` (note: a batched scorer
    must not consume this search's ``rng``, because batching reorders
    evaluation relative to child generation).  The search never advances
    ``clock`` itself; it reads it for the history.
    """

    def __init__(
        self,
        config: EvolutionConfig,
        initialize: Callable[[np.random.Generator], Genotype],
        mutate: Callable[[Genotype, np.random.Generator], Genotype],
        evaluate: Callable[[Genotype], float],
        rng: np.random.Generator,
        crossover: Callable[[Genotype, Genotype, np.random.Generator], Genotype] | None = None,
        key: Callable[[Genotype], Hashable] | None = None,
        clock: VirtualClock | None = None,
        evaluate_many: Callable[[list[Genotype]], "np.ndarray | list[float]"] | None = None,
        validate: Callable[[Genotype], bool] | None = None,
    ):
        self.config = config
        self.initialize = initialize
        self.mutate = mutate
        self.crossover = crossover
        self.evaluate_fn = evaluate
        self.evaluate_many_fn = evaluate_many
        self.key_fn = key if key is not None else (lambda genotype: genotype)
        self.rng = rng
        self.clock = clock if clock is not None else VirtualClock()
        self.validate_fn = validate
        self._cache: dict[Hashable, float] = {}
        # Genotype behind every cache key, so the cache can be serialized
        # into a checkpoint (keys are arbitrary hashables; genotypes have
        # caller-supplied encoders).
        self._cache_genotypes: dict[Hashable, Genotype] = {}
        self.evaluations = 0
        self.cache_hits = 0
        self.rejections = 0
        # Resumable run state: generations completed so far live on the
        # instance, so run() can continue from a restored checkpoint.
        self._population: list[tuple[Genotype, float]] | None = None
        self._history: list[HistoryPoint] = []
        self._next_iteration = 0

    # ------------------------------------------------------------------ #
    def _evaluate(self, genotype: Genotype) -> float:
        cache_key = self.key_fn(genotype)
        if cache_key in self._cache:
            self.cache_hits += 1
            return self._cache[cache_key]
        score = float(self.evaluate_fn(genotype))
        self._cache[cache_key] = score
        self._cache_genotypes[cache_key] = genotype
        self.evaluations += 1
        return score

    def _evaluate_batch(self, genotypes: list[Genotype]) -> list[float]:
        """Score ``genotypes`` through one ``evaluate_many`` call.

        Duplicate and already-cached genotypes are evaluated at most once,
        matching the sequential cache semantics.
        """
        keys = [self.key_fn(genotype) for genotype in genotypes]
        pending: dict[Hashable, Genotype] = {}
        for cache_key, genotype in zip(keys, genotypes):
            if cache_key not in self._cache and cache_key not in pending:
                pending[cache_key] = genotype
        # Every lookup that does not trigger a fresh evaluation was served
        # by the fitness cache, exactly as in the sequential path.
        self.cache_hits += len(genotypes) - len(pending)
        if pending:
            batch = list(pending.values())
            scores = np.asarray(self.evaluate_many_fn(batch), dtype=WIDE_DTYPE)
            if scores.shape != (len(batch),):
                raise ValueError(
                    f"evaluate_many returned shape {scores.shape} for {len(batch)} genotypes"
                )
            for cache_key, score in zip(pending, scores):
                self._cache[cache_key] = float(score)
                self._cache_genotypes[cache_key] = pending[cache_key]
                self.evaluations += 1
        return [self._cache[cache_key] for cache_key in keys]

    def _spawn_valid(self, spawn: Callable[[], Genotype]) -> Genotype:
        """Draw from ``spawn`` until ``validate`` accepts (or no validator set).

        Rejected candidates never reach fitness scoring: the fitness cache is
        untouched; only the ``rejections`` counter and the
        ``nas.analysis.rejected`` metric record them.  When every genotype
        passes, the shared ``rng`` stream is byte-identical to an unvalidated
        run (the validator itself must not draw from it).
        """
        if self.validate_fn is None:
            return spawn()
        for _ in range(MAX_VALIDATION_ATTEMPTS):
            genotype = spawn()
            if self.validate_fn(genotype):
                return genotype
            self.rejections += 1
            get_metrics().count("nas.analysis.rejected")
        raise RuntimeError(
            f"no valid genotype in {MAX_VALIDATION_ATTEMPTS} attempts; "
            "the mutation operator cannot escape an invalid region of the space"
        )

    def _spawn_and_score(
        self, count: int, spawn: Callable[[], Genotype]
    ) -> list[tuple[Genotype, float]]:
        """Generate ``count`` (valid) genotypes and score them.

        Without ``evaluate_many`` this interleaves generation and evaluation
        exactly like the historical sequential loop (an ``evaluate`` that
        draws from the shared ``rng`` therefore sees an unchanged stream);
        with it, the whole cohort is generated first and scored in one
        batched call.
        """
        if self.evaluate_many_fn is None:
            scored = []
            for _ in range(count):
                genotype = self._spawn_valid(spawn)
                scored.append((genotype, self._evaluate(genotype)))
            return scored
        genotypes = [self._spawn_valid(spawn) for _ in range(count)]
        return list(zip(genotypes, self._evaluate_batch(genotypes)))

    def _make_child(self, parents: list[tuple[Genotype, float]]) -> Genotype:
        first = parents[int(self.rng.integers(0, len(parents)))][0]
        child = first
        if (
            self.crossover is not None
            and len(parents) > 1
            and self.rng.random() < CROSSOVER_PROBABILITY
        ):
            second = parents[int(self.rng.integers(0, len(parents)))][0]
            child = self.crossover(first, second, self.rng)
        if self.rng.random() < MUTATION_PROBABILITY or child is first:
            child = self.mutate(child, self.rng)
        return child

    def _traced_generation(
        self, iteration: int, produce: Callable[[], list[tuple[Genotype, float]]]
    ) -> list[tuple[Genotype, float]]:
        """Run one generation inside a span, recording per-generation metrics.

        The span carries population size, fresh-evaluation and cache-hit
        counts, best/mean fitness and the virtual-clock charge of the
        generation; the default registry accumulates the same quantities as
        ``nas.evolution.*`` counters/gauges.  Purely observational — the
        genotypes, scores and clock are untouched.
        """
        metrics = get_metrics()
        evaluations_before = self.evaluations
        hits_before = self.cache_hits
        rejections_before = self.rejections
        clock_before = self.clock.now
        with get_tracer().span("nas.evolution.generation", iteration=iteration) as span:
            population = produce()
            population.sort(key=lambda item: item[1], reverse=True)
            scores = [score for _, score in population]
            span.attributes.update(
                population=len(population),
                evaluations=self.evaluations - evaluations_before,
                cache_hits=self.cache_hits - hits_before,
                rejections=self.rejections - rejections_before,
                best_fitness=float(population[0][1]),
                mean_fitness=float(np.mean(scores)),
                clock_s=self.clock.now - clock_before,
            )
        metrics.count("nas.evolution.generations")
        metrics.count("nas.evolution.evaluations", self.evaluations - evaluations_before)
        metrics.count("nas.evolution.cache_hits", self.cache_hits - hits_before)
        metrics.count("nas.evolution.clock_s", self.clock.now - clock_before)
        metrics.set_gauge("nas.evolution.best_fitness", float(population[0][1]), aggregate="max")
        return population

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #
    def state_dict(self, encode: Callable[[Genotype], object]) -> dict:
        """JSON-compatible snapshot of the run state after a generation.

        ``encode`` maps one genotype to a JSON-compatible document (the
        inverse of ``load_state_dict``'s ``decode``).  The snapshot covers
        everything :meth:`run` consumes besides the shared ``rng``/``clock``
        (which the caller checkpoints alongside): population, history,
        fitness cache and the bookkeeping counters.
        """
        if self._population is None:
            raise RuntimeError("no generation has completed; nothing to checkpoint")
        return {
            "next_iteration": self._next_iteration,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "rejections": self.rejections,
            "population": [[encode(genotype), float(score)] for genotype, score in self._population],
            "history": [
                {
                    "iteration": point.iteration,
                    "evaluations": point.evaluations,
                    "best_score": point.best_score,
                    "clock_s": point.clock_s,
                }
                for point in self._history
            ],
            "cache": [
                [encode(self._cache_genotypes[cache_key]), float(score)]
                for cache_key, score in self._cache.items()
            ],
        }

    def load_state_dict(self, state: dict, decode: Callable[[object], Genotype]) -> None:
        """Restore a :meth:`state_dict` snapshot; the next :meth:`run` resumes.

        Cache keys are rebuilt through ``key_fn`` from the decoded
        genotypes, so the restored cache is keyed identically to one built
        by a live run.
        """
        self._cache = {}
        self._cache_genotypes = {}
        for document, score in state["cache"]:
            genotype = decode(document)
            cache_key = self.key_fn(genotype)
            self._cache[cache_key] = float(score)
            self._cache_genotypes[cache_key] = genotype
        self._population = [(decode(document), float(score)) for document, score in state["population"]]
        self._history = [HistoryPoint(**point) for point in state["history"]]
        self._next_iteration = int(state["next_iteration"])
        self.evaluations = int(state["evaluations"])
        self.cache_hits = int(state["cache_hits"])
        self.rejections = int(state["rejections"])

    def _record_generation(self, iteration: int) -> None:
        assert self._population is not None
        self._history.append(
            HistoryPoint(
                iteration=iteration,
                evaluations=self.evaluations,
                best_score=self._population[0][1],
                clock_s=self.clock.now,
            )
        )
        self._next_iteration = iteration + 1

    def run(
        self,
        iterations: int,
        on_generation: Callable[[int], None] | None = None,
    ) -> EvolutionResult[Genotype]:
        """Run the EA for ``iterations`` generations.

        Args:
            iterations: Number of generations after the random initial one.
            on_generation: Called after every completed generation with its
                index — the checkpoint hook (generation state is readable
                through :meth:`state_dict` at that moment).

        Returns:
            The best genotype found, its score and the search history.

        After :meth:`load_state_dict`, already-completed generations are
        skipped and the run continues exactly where the snapshot left off
        (bit-identical to an uninterrupted run given identically restored
        ``rng``/``clock``).
        """
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if self._population is None:
            self._population = self._traced_generation(
                0,
                lambda: self._spawn_and_score(
                    self.config.population_size, lambda: self.initialize(self.rng)
                ),
            )
            self._record_generation(0)
            if on_generation is not None:
                on_generation(0)

        num_parents = self.config.num_parents
        num_children = self.config.population_size - num_parents
        for iteration in range(self._next_iteration, iterations + 1):
            parents = self._population[:num_parents]
            self._population = self._traced_generation(
                iteration,
                lambda parents=parents: parents
                + self._spawn_and_score(num_children, lambda: self._make_child(parents)),
            )
            self._record_generation(iteration)
            if on_generation is not None:
                on_generation(iteration)

        best, best_score = self._population[0]
        return EvolutionResult(
            best=best,
            best_score=best_score,
            history=list(self._history),
            population=list(self._population),
            evaluations=self.evaluations,
            rejections=self.rejections,
        )
