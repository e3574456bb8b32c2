"""Neural-network modules (layers) built on the autograd engine.

The API intentionally mirrors a small subset of ``torch.nn``: modules hold
named parameters and sub-modules, expose ``parameters()`` /
``state_dict()`` / ``load_state_dict()``, and switch behaviour with
``train()`` / ``eval()``.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Iterable, Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "MLP",
    "BatchNorm1d",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Sequential",
]


class Module:
    """Base class for all layers and models.

    Sub-classes register parameters by assigning :class:`Tensor` objects
    with ``requires_grad=True`` to attributes, and register sub-modules by
    assigning :class:`Module` objects.
    """

    #: Bumped whenever any module registers a sub-module; a cached flat
    #: module list (see :meth:`modules`) is valid only at the version it was
    #: built at, because a parent cannot see its children's registrations.
    _structure_version = 0

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Tensor]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -------------------------------------------------------------- #
    # Attribute-based registration
    # -------------------------------------------------------------- #
    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
            Module._structure_version += 1
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> "Module":
        """Explicitly register a sub-module under ``name``."""
        self._modules[name] = module
        Module._structure_version += 1
        object.__setattr__(self, name, module)
        return module

    # -------------------------------------------------------------- #
    # Traversal
    # -------------------------------------------------------------- #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(name, parameter)`` pairs for this module and children."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Tensor]:
        """Return all learnable parameters of this module and children."""
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants (depth-first, in registration order)."""
        # The cached list holds descendants only: a module that listed itself
        # would sit in a reference cycle and outlive its last reference.
        cached = self.__dict__.get("_descendants")
        if cached is None or cached[0] != Module._structure_version:
            descendants = [module for child in self._modules.values() for module in child.modules()]
            cached = (Module._structure_version, descendants)
            object.__setattr__(self, "_descendants", cached)
        return itertools.chain((self,), cached[1])

    def __getstate__(self) -> dict:
        # A cached list is valid only at the version, and in the process, it
        # was built in; copies and unpickled modules rebuild theirs.
        state = self.__dict__.copy()
        state.pop("_descendants", None)
        return state

    def num_parameters(self) -> int:
        """Total number of learnable scalar parameters."""
        return int(sum(p.size for p in self.parameters()))

    # -------------------------------------------------------------- #
    # Mode / gradient management
    # -------------------------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode on this module and all descendants."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -------------------------------------------------------------- #
    # (De)serialization
    # -------------------------------------------------------------- #
    def state_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by its dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters(prefix)}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values by dotted name.

        Args:
            state: Mapping from parameter name to array.
            strict: If ``True`` raise when names are missing or unexpected.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            if name in state:
                value = np.asarray(state[name], dtype=param.data.dtype)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for '{name}': expected {param.data.shape}, got {value.shape}"
                    )
                param.data = value.copy()

    # -------------------------------------------------------------- #
    # Forward
    # -------------------------------------------------------------- #
    def forward(self, *args, **kwargs):
        """Compute the module output.  Must be overridden."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine transformation ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer sizes must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init.kaiming_uniform((in_features, out_features), rng), requires_grad=True)
        if bias:
            self.bias = Tensor(init.zeros((out_features,)), requires_grad=True)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class ReLU(Module):
    """ReLU activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class LeakyReLU(Module):
    """LeakyReLU activation module."""

    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)


class Dropout(Module):
    """Inverted dropout with its own random stream."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class BatchNorm1d(Module):
    """Batch normalisation over the leading (batch/node) dimension."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Tensor(init.ones((num_features,)), requires_grad=True)
        self.bias = Tensor(init.zeros((num_features,)), requires_grad=True)
        self.running_mean = init.zeros((num_features,))
        self.running_var = init.ones((num_features,))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expects input of shape (N, {self.num_features}), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=0, keepdims=True)
            var = ((x - mean) ** 2).mean(axis=0, keepdims=True)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean.data.reshape(-1)
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var.data.reshape(-1)
            )
            normalised = (x - mean) / (var + self.eps) ** 0.5
        else:
            mean = Tensor(self.running_mean.reshape(1, -1))
            var = Tensor(self.running_var.reshape(1, -1))
            normalised = (x - mean) / (var + self.eps) ** 0.5
        return normalised * self.weight + self.bias


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: list[str] = []
        for index, module in enumerate(modules):
            name = str(index)
            self.add_module(name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        """Append a module to the chain."""
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x


class MLP(Module):
    """Multi-layer perceptron with configurable hidden dimensions.

    Args:
        dims: Sequence of layer widths, e.g. ``[in, hidden1, hidden2, out]``.
        activation: ``"relu"`` or ``"leaky_relu"`` applied between layers.
        final_activation: Whether to apply the activation after the last
            linear layer as well.
        dropout: Dropout probability between layers (0 disables).
        batch_norm: Whether to insert ``BatchNorm1d`` after hidden layers.
        rng: Generator used for weight initialisation and dropout masks.
    """

    def __init__(
        self,
        dims: Iterable[int],
        activation: str = "relu",
        final_activation: bool = False,
        dropout: float = 0.0,
        batch_norm: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        dims = list(dims)
        if len(dims) < 2:
            raise ValueError("MLP requires at least an input and an output dimension")
        rng = rng if rng is not None else np.random.default_rng(0)
        if activation not in ("relu", "leaky_relu"):
            raise ValueError(f"unsupported activation '{activation}'")
        self.dims = dims
        layers = Sequential()
        for i in range(len(dims) - 1):
            layers.append(Linear(dims[i], dims[i + 1], rng=rng))
            is_last = i == len(dims) - 2
            if not is_last or final_activation:
                if batch_norm:
                    layers.append(BatchNorm1d(dims[i + 1]))
                if activation == "relu":
                    layers.append(ReLU())
                else:
                    layers.append(LeakyReLU(0.2))
                if dropout > 0:
                    layers.append(Dropout(dropout, rng=rng))
        self.layers = layers

    def forward(self, x: Tensor) -> Tensor:
        return self.layers(x)
