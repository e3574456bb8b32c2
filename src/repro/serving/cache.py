"""Bounded LRU caching for the serving engine.

Two cache uses share the same :class:`LRUCache` implementation:

* **Edge-index caching** — the :class:`CachingGraphBuilder` keeps only the
  per-cloud graphs a later request can reuse: KNN over the request's own
  coordinates (shared by every deployment with the same ``k``) and random
  graphs.  Both are keyed by a content hash of the cloud's quantised
  coordinates.  KNN over learned features is built directly, with no
  hash and no cache entry.
* **Result caching** — the engine stores final logits per
  ``(model, input fingerprint)`` so repeated inputs skip inference
  entirely.

Keys are content hashes of quantised coordinates (see
:func:`cloud_fingerprint`), so byte-identical and near-identical inputs
(within quantisation precision) hit the same entry.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable

import numpy as np

from repro.graph.batching import batched_knn_graph
from repro.graph.knn import knn_graph
from repro.graph.sampling import SAMPLER_VERSION, random_graph
from repro.nn.dtype import WIDE_DTYPE, as_float_array

__all__ = ["CacheStats", "LRUCache", "cloud_fingerprint", "CachingGraphBuilder"]


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A bounded least-recently-used mapping with hit/miss counters.

    A ``capacity`` of 0 disables storage entirely: every lookup misses and
    ``put`` is a no-op, which lets callers toggle caching without branching.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency; counts a hit or miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the oldest entry when full."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    def stats(self) -> CacheStats:
        """Return a snapshot of the cache counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            capacity=self.capacity,
        )


def cloud_fingerprint(
    points: np.ndarray, decimals: int = 6, extra: Iterable[Hashable] = ()
) -> str:
    """Content hash of a point cloud, stable under sub-precision jitter.

    Coordinates are rounded to ``decimals`` before hashing, so floating-point
    noise below the quantisation step maps to the same key while any real
    geometric difference changes it.  ``extra`` mixes additional context
    (e.g. the neighbourhood size ``k``) into the digest.
    """
    quantised = np.round(np.asarray(points, dtype=WIDE_DTYPE), decimals)
    # Normalise -0.0 so that -1e-12 and +1e-12 round to the same bytes.
    quantised = quantised + 0.0
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(quantised.shape).encode())
    digest.update(quantised.tobytes())
    for item in extra:
        digest.update(repr(item).encode())
    return digest.hexdigest()


class CachingGraphBuilder:
    """Per-cloud graph construction that caches only edges a later request can reuse.

    Implements the :data:`repro.nas.derived.GraphBuilder` protocol.  KNN over
    the request's coordinates (``features is points``) is keyed by the
    cloud's fingerprint and ``k``, so deployments with the same ``k`` share
    it.  Random graphs are keyed by the fingerprint, ``k``, the sampler
    version and the layer index, and seeded from that key: identical clouds
    get identical graphs with or without the cache, the property behind the
    engine's bit-identical cached/uncached results.  KNN over learned
    features would repeat only for a cloud the result cache answers first,
    so it runs :func:`~repro.graph.batching.batched_knn_graph` uncached.
    """

    def __init__(self, cache: LRUCache | None = None, shared=None):
        self.cache = cache
        #: Optional cross-process tier (a :class:`repro.serving.diskcache.SharedArrayCache`):
        #: edges built by one pool worker are reused by its siblings.  Keys depend only on
        #: cloud geometry, method, k and layer, and rebuilt edges are deterministic, so the
        #: tier cannot change results.
        self.shared = shared

    def __call__(
        self, method: str, features: np.ndarray, batch_vector: np.ndarray, k: int, *, points: np.ndarray, layer: int
    ) -> np.ndarray:
        if method == "knn" and features is not points:
            return batched_knn_graph(features, batch_vector, k)
        if method not in ("knn", "random"):
            raise ValueError(f"unknown sample method '{method}'")
        # Random edges also depend on the sampler's stream, so a persisted
        # shared tier never serves edges drawn by another sampler version.
        extra = (method, k) if method == "knn" else (method, k, SAMPLER_VERSION, layer)
        # Fingerprints quantise to float64 internally, so keys are dtype-independent.
        points = as_float_array(points)
        batch_vector = np.asarray(batch_vector, dtype=np.int64)
        edges: list[np.ndarray] = []
        for graph_id in np.unique(batch_vector):
            node_ids = np.flatnonzero(batch_vector == graph_id)
            cloud = points[node_ids]
            key = cloud_fingerprint(cloud, extra=extra)
            local = self.cache.get(key) if self.cache is not None else None
            if local is None and self.shared is not None:
                local = self.shared.get(key)
            if local is None:
                if method == "knn":
                    local = knn_graph(cloud, k)
                else:
                    local = random_graph(node_ids.size, k, np.random.default_rng(int(key[:15], 16)))
                # Cache entries hold int32 local indices, half the bytes of
                # int64; ``node_ids[local]`` below still yields int64 edges.
                local = local.astype(np.int32)
                if self.shared is not None:
                    self.shared.put_if_absent(key, local)
            if self.cache is not None and key not in self.cache:
                self.cache.put(key, local)
            edges.append(node_ids[local])
        if not edges:
            return np.zeros((2, 0), dtype=np.int64)
        return np.concatenate(edges, axis=1)
