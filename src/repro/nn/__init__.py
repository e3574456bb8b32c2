"""A compact numpy autograd engine with layers, losses and optimisers.

This package stands in for PyTorch in the HGNAS reproduction.  It provides
exactly the machinery the paper's models need: reverse-mode autodiff
(:mod:`repro.nn.tensor`), layers (:mod:`repro.nn.layers`), optimisers
(:mod:`repro.nn.optim`) and losses (:mod:`repro.nn.loss`).
"""

from repro.nn import functional, init
from repro.nn.dtype import (
    as_float_array,
    default_dtype,
    get_default_dtype,
    resolve_dtype,
    set_default_dtype,
)
from repro.nn.layers import (
    MLP,
    BatchNorm1d,
    Dropout,
    LeakyReLU,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.loss import (
    accuracy,
    balanced_accuracy,
    cross_entropy,
    huber_loss,
)
from repro.nn.optim import SGD, Adam, AdamW, Optimizer, clip_grad_norm
from repro.nn.tensor import Tensor, apply_op, as_tensor, concatenate, no_grad, stack

__all__ = [
    "functional",
    "init",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "resolve_dtype",
    "as_float_array",
    "Tensor",
    "as_tensor",
    "apply_op",
    "no_grad",
    "concatenate",
    "stack",
    "Module",
    "Linear",
    "MLP",
    "BatchNorm1d",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "cross_entropy",
    "huber_loss",
    "accuracy",
    "balanced_accuracy",
]
