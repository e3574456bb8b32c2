"""Edge message construction.

The *aggregate* operation in the HGNAS design space carries a **message
type** attribute (Table I) that selects how the per-edge message is built
from the centre node feature ``x_i`` (target), the neighbour feature ``x_j``
(source) and their difference:

=================  ==========================================
Message type       Message
=================  ==========================================
``source_pos``     ``x_j``
``target_pos``     ``x_i``
``rel_pos``        ``x_j - x_i``
``distance``       ``||x_j - x_i||``  (1 feature)
``source_rel``     ``[x_j, x_j - x_i]``
``target_rel``     ``[x_i, x_j - x_i]``  (DGCNN's EdgeConv message)
``full``           ``[x_i, x_j, x_j - x_i, ||x_j - x_i||]``
=================  ==========================================

:func:`build_messages` materializes the ``(E, message_dim)`` tensor.  It is
the first half of the materialized reference path that the fused kernels of
:mod:`repro.graph.fused` are tested against, and the path
:func:`repro.graph.propagate` still takes for MLPs other than EdgeConv's;
every MLP-free aggregate runs fused.  The fused ``distance``/``full``
kernel computes each edge's distance with the same numpy calls as here, so
the two paths agree to the bit.
"""

from __future__ import annotations

import numpy as np

from repro.backends import scatter_add
from repro.graph.edge_index import validate_edge_index
from repro.nn.tensor import Tensor, apply_op, as_tensor, concatenate

__all__ = ["MESSAGE_TYPES", "message_dim", "build_messages"]

MESSAGE_TYPES = (
    "source_pos",
    "target_pos",
    "rel_pos",
    "distance",
    "source_rel",
    "target_rel",
    "full",
)


def message_dim(message_type: str, feature_dim: int) -> int:
    """Return the per-edge message width for ``message_type``.

    Args:
        message_type: One of :data:`MESSAGE_TYPES`.
        feature_dim: Width of the node features the message is built from.
    """
    if feature_dim <= 0:
        raise ValueError(f"feature_dim must be positive, got {feature_dim}")
    if message_type in ("source_pos", "target_pos", "rel_pos"):
        return feature_dim
    if message_type == "distance":
        return 1
    if message_type in ("source_rel", "target_rel"):
        return 2 * feature_dim
    if message_type == "full":
        return 3 * feature_dim + 1
    raise ValueError(f"unknown message type '{message_type}', expected one of {MESSAGE_TYPES}")


def _gather_nodes(features: Tensor, index: np.ndarray) -> Tensor:
    """Differentiable endpoint gather.

    Forward is ``features[index]``; backward scatter-accumulates the output
    gradient back onto the gathered rows.
    """
    data = features.data[index]

    def backward_fn(grad: np.ndarray) -> list[np.ndarray]:
        full = np.zeros_like(features.data)
        scatter_add(full, index, grad)
        return [full]

    return apply_op(data, (features,), backward_fn)


def build_messages(
    features: Tensor, edge_index: np.ndarray, message_type: str, validated: bool = False
) -> Tensor:
    """Build per-edge messages from node features.

    Args:
        features: Node features of shape ``(N, F)``.
        edge_index: Edge index of shape ``(2, E)``; row 0 sources, row 1 targets.
        message_type: One of :data:`MESSAGE_TYPES`.
        validated: Skip the range scan for edge indices that already passed
            :func:`~repro.graph.edge_index.validate_edge_index` (every graph
            builder in :mod:`repro.graph` validates its output).

    Returns:
        Messages of shape ``(E, message_dim(message_type, F))``.
    """
    features = as_tensor(features)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D (N, F), got shape {features.shape}")
    if validated:
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError(f"edge_index must have shape (2, E), got {edge_index.shape}")
    else:
        # Full range validation: downstream scatter calls on the message
        # tensor may rely on the targets being in range.
        edge_index = validate_edge_index(edge_index, features.shape[0])
    sources, targets = edge_index[0], edge_index[1]

    x_j = _gather_nodes(features, sources)
    x_i = _gather_nodes(features, targets)

    if message_type == "source_pos":
        return x_j
    if message_type == "target_pos":
        return x_i
    if message_type == "rel_pos":
        return x_j - x_i
    if message_type == "distance":
        rel = x_j - x_i
        return ((rel**2).sum(axis=1, keepdims=True) + 1e-12) ** 0.5
    if message_type == "source_rel":
        return concatenate([x_j, x_j - x_i], axis=1)
    if message_type == "target_rel":
        return concatenate([x_i, x_j - x_i], axis=1)
    if message_type == "full":
        rel = x_j - x_i
        dist = ((rel**2).sum(axis=1, keepdims=True) + 1e-12) ** 0.5
        return concatenate([x_i, x_j, rel, dist], axis=1)
    raise ValueError(f"unknown message type '{message_type}', expected one of {MESSAGE_TYPES}")
