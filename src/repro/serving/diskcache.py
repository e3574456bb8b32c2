"""Disk-backed, cross-process cache tier for the serving engines.

The in-memory LRU caches of :mod:`repro.serving.cache` are per-process:
with N worker processes serving the same deployment, a cloud computed by
worker 0 would be recomputed by worker 3.  :class:`SharedArrayCache` adds
a second, disk-backed tier under a shared directory (typically the
workspace root) that every worker of a pool reads and writes:

* **Keys** are the same content hashes as the in-memory tier
  (:func:`repro.serving.cache.cloud_fingerprint`), extended with a
  process-independent :func:`deployment_fingerprint` so two workers that
  loaded the same registry snapshot agree on every key even though their
  per-registry ``generation`` counters are local.
* **Writes** are atomic (unique temp file + ``os.replace``), so a racing
  reader sees either the previous complete entry or the new complete
  entry, never a torn one.  Entries are ``put_if_absent`` — the first
  computation of a key wins, mirroring the in-memory tier's first-write
  replay semantics.
* **Values** are single ``.npy`` arrays (result logits, KNN edge
  indices), fanned out over 256 prefix shards to keep directories small.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import uuid

import numpy as np

from repro.faults import fault_point
from repro.graph.sampling import SAMPLER_VERSION
from repro.serving.cache import CacheStats
from repro.utils.logging import get_logger

__all__ = ["SharedArrayCache", "deployment_fingerprint"]

_LOGGER = get_logger("serving.diskcache")


def deployment_fingerprint(entry, backend: str) -> str:
    """Process-independent content hash of one deployed model.

    Covers everything that determines the logits a deployment produces for
    a given cloud: the genotype, the head configuration, the actual weight
    bytes, the message-passing path and the random-graph sampler.  Unlike
    the registry's ``generation`` counter (a per-process monotonic stamp),
    this hash is identical across worker processes that loaded the same
    registry snapshot — the property a cross-process cache key needs —
    while any redeploy that changes the weights or architecture changes
    the key, so a shared cache can never serve logits of a replaced model.
    """
    digest = hashlib.blake2b(digest_size=16)
    identity = {
        "architecture": entry.architecture.to_dict(),
        "num_classes": entry.num_classes,
        "k": entry.k,
        "embed_dim": entry.embed_dim,
        "backend": backend,
        # Random-sampling layers draw their edges from the sampler's stream,
        # seeded from the coordinate fingerprint and the layer index.
        "sampler": SAMPLER_VERSION,
        "random_graph_seed": "coordinates+layer",
    }
    digest.update(json.dumps(identity, sort_keys=True, separators=(",", ":")).encode())
    state = entry.model.state_dict()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


class SharedArrayCache:
    """A content-addressed one-array-per-key cache on shared disk.

    Safe under concurrent readers and writers from multiple processes:
    writes go to a unique temp file in the same shard directory and are
    committed with an atomic rename, and reads tolerate a key appearing or
    disappearing between the lookup and the open.  Hit/miss/write counters
    are per-process (each worker reports its own view; a pool sums them).
    """

    def __init__(self, directory: str | pathlib.Path):
        self.directory = pathlib.Path(directory)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0

    def _path(self, key: str) -> pathlib.Path:
        shard = key[:2] if len(key) >= 2 else "xx"
        return self.directory / shard / f"{key}.npy"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.npy"))

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a damaged entry aside so it is never re-read as a value.

        The ``.corrupt`` suffix takes the file out of every glob and lookup
        path; keeping the bytes (instead of unlinking) preserves evidence
        for debugging what wrote them.
        """
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except FileNotFoundError:  # pragma: no cover - racing deletion
            return
        self.quarantined += 1
        _LOGGER.warning("quarantined corrupt shared-cache entry %s", target)

    def get(self, key: str) -> np.ndarray | None:
        """Load the entry for ``key``, or ``None`` on a miss.

        A truncated or garbled entry (torn by a crashed writer, bit-rotted
        on disk) reads as a miss: the file is quarantined (renamed to
        ``<name>.corrupt``) and the caller recomputes, rather than one bad
        entry failing every request that hashes onto it.
        """
        path = self._path(key)
        spec = fault_point("serving.diskcache.get", key=key)
        if spec is not None and spec.action == "corrupt" and path.exists():
            path.write_bytes(b"\x00corrupt\x00")  # garble in place: the real recovery path runs
        try:
            value = np.load(path, allow_pickle=False)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError, EOFError):
            # Bad magic, truncated payload, or an I/O error mid-read: treat
            # as a miss and quarantine whatever is on disk.  (ValueError also
            # covers a file racing deletion mid-open on some platforms; the
            # quarantine rename is then a no-op.)
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put_if_absent(self, key: str, value: np.ndarray) -> bool:
        """Store ``value`` unless ``key`` already exists; returns whether written.

        The existence check and the rename are not one atomic unit, so two
        racing writers of the same key may both write — they commit via
        ``os.replace``, so the entry is always one writer's complete bytes.
        """
        path = self._path(key)
        if path.exists():
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.with_name(f".{uuid.uuid4().hex}.tmp.npy")
        with open(staging, "wb") as handle:
            np.save(handle, np.ascontiguousarray(value), allow_pickle=False)
        os.replace(staging, path)
        self.writes += 1
        return True

    def clear(self) -> int:
        """Delete every entry; returns the number removed (counters kept)."""
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*/*.npy"):
                try:
                    entry.unlink()
                    removed += 1
                except FileNotFoundError:
                    continue
        return removed

    def stats(self) -> CacheStats:
        """This process's counter view (size reflects the shared directory)."""
        size = len(self)
        return CacheStats(hits=self.hits, misses=self.misses, evictions=0, size=size, capacity=size)
