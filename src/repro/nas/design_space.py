"""The fine-grained, operation-based design space (paper Sec. III-B)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nas.architecture import Architecture
from repro.nas.ops import (
    FunctionSet,
    OperationType,
    function_space_size,
    mutate_function_set,
    random_function_set,
)

__all__ = ["DesignSpaceConfig", "DesignSpace"]


@dataclass(frozen=True)
class DesignSpaceConfig:
    """Static description of the search problem.

    Attributes:
        num_positions: Number of supernet positions (12 covers DGCNN).
        k: Neighbourhood size used by sample operations.
        num_points: Point-cloud size of the deployment scenario (drives the
            hardware cost of candidates).
        num_classes: Classification classes of the task.
        input_dim: Width of the raw input features (3 for xyz point clouds).
    """

    num_positions: int = 12
    k: int = 20
    num_points: int = 1024
    num_classes: int = 40
    input_dim: int = 3

    def __post_init__(self) -> None:
        if self.num_positions < 2 or self.num_positions % 2 != 0:
            raise ValueError("num_positions must be an even number >= 2 (upper/lower halves)")
        if self.k <= 0 or self.num_points <= 0 or self.input_dim <= 0:
            raise ValueError("k, num_points and input_dim must be positive")
        if self.num_classes <= 1:
            raise ValueError("num_classes must be > 1")


class DesignSpace:
    """Sampling, mutation and crossover utilities over the design space."""

    def __init__(self, config: DesignSpaceConfig | None = None):
        self.config = config or DesignSpaceConfig()

    # ------------------------------------------------------------------ #
    # Size accounting (paper Observation 2)
    # ------------------------------------------------------------------ #
    def function_space_size(self, shared: bool = True) -> int:
        """Number of function assignments.

        Args:
            shared: If ``True`` (HGNAS), one function set per half; otherwise
                every position carries its own set (the un-shared space the
                paper's reduction argument starts from).
        """
        per_position = function_space_size()
        exponent = 2 if shared else self.config.num_positions
        return per_position**exponent

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def random_function_set(self, rng: np.random.Generator) -> FunctionSet:
        """Uniformly random function set."""
        return random_function_set(rng)

    def random_operations(self, rng: np.random.Generator) -> tuple[OperationType, ...]:
        """Uniformly random operation assignment."""
        choices = OperationType.list()
        return tuple(choices[int(i)] for i in rng.integers(0, len(choices), size=self.config.num_positions))

    def random_architecture(
        self,
        rng: np.random.Generator,
        upper_functions: FunctionSet | None = None,
        lower_functions: FunctionSet | None = None,
    ) -> Architecture:
        """Uniformly random architecture (optionally with fixed function sets)."""
        return Architecture(
            operations=self.random_operations(rng),
            upper_functions=upper_functions or random_function_set(rng),
            lower_functions=lower_functions or random_function_set(rng),
            input_dim=self.config.input_dim,
        )

    # ------------------------------------------------------------------ #
    # Mutation / crossover
    # ------------------------------------------------------------------ #
    def mutate_operations(
        self, architecture: Architecture, rng: np.random.Generator, num_mutations: int = 1
    ) -> Architecture:
        """Resample the operation at ``num_mutations`` random positions."""
        if num_mutations <= 0:
            raise ValueError("num_mutations must be positive")
        operations = list(architecture.operations)
        choices = OperationType.list()
        positions = rng.choice(len(operations), size=min(num_mutations, len(operations)), replace=False)
        for position in np.atleast_1d(positions):
            current = operations[int(position)]
            alternatives = [op for op in choices if op is not current]
            operations[int(position)] = alternatives[int(rng.integers(0, len(alternatives)))]
        return Architecture(
            operations=tuple(operations),
            upper_functions=architecture.upper_functions,
            lower_functions=architecture.lower_functions,
            input_dim=architecture.input_dim,
        )

    def mutate_functions(
        self, architecture: Architecture, rng: np.random.Generator, num_mutations: int = 1
    ) -> Architecture:
        """Mutate the function set of a random half."""
        if rng.random() < 0.5:
            upper = mutate_function_set(architecture.upper_functions, rng, num_mutations)
            lower = architecture.lower_functions
        else:
            upper = architecture.upper_functions
            lower = mutate_function_set(architecture.lower_functions, rng, num_mutations)
        return Architecture(
            operations=architecture.operations,
            upper_functions=upper,
            lower_functions=lower,
            input_dim=architecture.input_dim,
        )

    def crossover_operations(
        self, parent_a: Architecture, parent_b: Architecture, rng: np.random.Generator
    ) -> Architecture:
        """Uniform crossover of operation assignments (functions from parent A)."""
        if parent_a.num_positions != parent_b.num_positions:
            raise ValueError("parents must have the same number of positions")
        mask = rng.random(parent_a.num_positions) < 0.5
        operations = tuple(
            parent_a.operations[i] if mask[i] else parent_b.operations[i]
            for i in range(parent_a.num_positions)
        )
        return Architecture(
            operations=operations,
            upper_functions=parent_a.upper_functions,
            lower_functions=parent_a.lower_functions,
            input_dim=parent_a.input_dim,
        )
