"""Search checkpoints persisted through the ArtifactStore.

A :class:`SearchCheckpointer` binds one ``(store, key)`` pair — the same
content-addressed key the final search artifact will be stored under, in
a separate ``search_ckpt`` stage — and overwrites a single checkpoint
entry as the search progresses: after every supernet epoch and every EA
generation, in both search strategies.  The checkpoint carries everything
a killed search needs to continue *bit-identically*:

* the strategy and the search config it belongs to (a search with another
  strategy or config refuses to resume from it),
* the shared search RNG state and the (stochastic) latency evaluator's
  RNG state,
* the virtual clock,
* the accuracy/latency fitness caches (as genotype documents, re-keyed on
  load),
* the evolutionary-search population/history/counters,
* the supernet weights and Adam optimiser slots (as arrays).

Only a supernet epoch changes the weights, so only a training commit
writes arrays: one flat ``arrays.bin`` of raw bytes, whose manifest and
checksum live in ``meta.json`` (see :mod:`repro.workspace.store`).  An
EA-generation commit is meta-only: it atomically replaces ``meta.json``
and keeps the entry's committed arrays, manifest and checksum, which
every load still verifies.  A search therefore writes arrays once per
supernet epoch, not once per commit.

Every commit is a valid resume point: because everything downstream of
the captured state is deterministic, the resumed search replays the
original run exactly.  The entry is discarded when the search completes
(the final artifact supersedes it).

``save`` commits the entry *before* visiting the ``nas.search.checkpoint``
fault point, so a chaos plan that "kills" the process at a checkpoint
(an ``error`` spec) leaves a committed, resumable entry behind — the same
window a real SIGKILL right after a commit would leave.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.faults import fault_point
from repro.obs.metrics import get_metrics
from repro.utils.logging import get_logger
from repro.workspace.store import ArtifactStore

__all__ = ["SearchCheckpointer", "CHECKPOINT_STAGE"]

CHECKPOINT_STAGE = "search_ckpt"

_LOGGER = get_logger("nas.checkpoint")


class SearchCheckpointer:
    """One overwritable checkpoint slot for a search run."""

    def __init__(self, store: ArtifactStore, key: str):
        self.store = store
        self.key = key
        self.saves = 0

    def save(self, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray] | None = None) -> None:
        """Commit a checkpoint (atomic via the store's staged writes).

        Without ``arrays`` the commit is meta-only: the slot keeps the
        arrays it last committed (none, if it is empty).
        """
        self.store.save(CHECKPOINT_STAGE, self.key, meta, arrays, keep_arrays=arrays is None)
        self.saves += 1
        get_metrics().count("nas.search.checkpoints")
        fault_point(
            "nas.search.checkpoint",
            phase=meta.get("phase"),
            progress=meta.get("progress"),
            saves=self.saves,
        )

    def load(self) -> tuple[dict, dict[str, np.ndarray]] | None:
        """The committed checkpoint as ``(meta, arrays)``, or ``None``."""
        if not self.store.contains(CHECKPOINT_STAGE, self.key):
            # Every fresh run probes for a resume point; don't let that
            # routine absence pollute the pipeline's hit/miss counters.
            return None
        artifact = self.store.load(CHECKPOINT_STAGE, self.key)
        if artifact is None:
            return None
        _LOGGER.info(
            "loaded search checkpoint %s (phase=%s progress=%s)",
            self.key,
            artifact.meta.get("phase"),
            artifact.meta.get("progress"),
        )
        return dict(artifact.meta), dict(artifact.arrays)

    def clear(self) -> None:
        """Drop the checkpoint (called when the search completes)."""
        self.store.discard(CHECKPOINT_STAGE, self.key)
