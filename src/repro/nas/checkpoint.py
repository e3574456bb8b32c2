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
carries arrays: one flat ``arrays.bin`` of raw bytes, whose manifest and
checksum live in ``meta.json`` (see :mod:`repro.workspace.store`).  An
EA-generation commit is meta-only: it replaces ``meta.json`` and keeps the
arrays of the latest training commit, their manifest and checksum, which
every load still verifies.

Commits are written behind the search (:meth:`ArtifactStore.commit`):

* **The snapshot.**  ``save`` encodes the meta to JSON and copies the
  arrays into one of two reused buffers laid out as ``arrays.bin`` is.  A
  writer thread checksums and writes it, then renames ``arrays.bin`` and
  ``meta.json`` into place.
* **One commit in flight.**  ``save`` first waits for the write of the
  previous commit — usually long done, since a supernet epoch or an EA
  generation lies between them — and raises its error, so no commit is
  ever queued behind a failed one.  The write in flight always finishes;
  ``clear`` waits for it, then deletes the entry.  After a failed array
  write, a meta-only commit fails too until arrays are committed again.
* **Visibility.**  ``load`` on the same store waits for the write in
  flight, so a second checkpointer on that store reads the latest save.
  A fresh ``ArtifactStore(root)`` — what another process sees — reads the
  last *published* commit.
* **Crashes.**  A SIGKILL or ``os._exit`` loses the write in flight (the
  latest commit at most).  Every commit is a valid resume point: everything
  downstream of the captured state is deterministic, so a search resumed
  from the last published commit replays the original run exactly.  A
  kill between the two renames of an array commit leaves a new
  ``arrays.bin`` under the old ``meta.json``; the checksum drops that
  entry as corrupt and the search starts over, to the same result.
  ``Workspace.search`` waits for the write in flight before an exception
  leaves it.

The entry is discarded when the search completes (the final artifact
supersedes it).

Whenever a fault plan is active, ``save`` waits until its commit is
published and only then visits the ``nas.search.checkpoint`` fault point,
so a chaos plan that kills the process at a checkpoint (an ``error`` or
``crash`` spec) leaves that commit on disk — the same window a real
SIGKILL right after a commit would leave.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.faults import fault_point, get_injector
from repro.obs.metrics import get_metrics
from repro.utils.logging import get_logger
from repro.workspace.store import ArtifactStore

__all__ = ["SearchCheckpointer", "CHECKPOINT_STAGE"]

CHECKPOINT_STAGE = "search_ckpt"

#: Commits made; the store counts each one's outcome as
#: ``workspace.store.commits.published`` or ``.failed``.
_METRIC = "nas.search.checkpoints"

_LOGGER = get_logger("nas.checkpoint")


class SearchCheckpointer:
    """One overwritable checkpoint slot for a search run."""

    def __init__(self, store: ArtifactStore, key: str):
        self.store = store
        self.key = key
        self.saves = 0

    def save(self, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray] | None = None) -> None:
        """Commit a checkpoint (published by the store's background writer).

        Without ``arrays`` the commit is meta-only: the slot keeps the
        arrays it last committed (none, if it is empty).
        """
        self.store.commit(CHECKPOINT_STAGE, self.key, meta, arrays)
        self.saves += 1
        get_metrics().count(_METRIC)
        if get_injector() is not None:
            self.flush()
            fault_point(
                "nas.search.checkpoint",
                phase=meta.get("phase"),
                progress=meta.get("progress"),
                saves=self.saves,
            )

    def flush(self) -> None:
        """Wait for the checkpoint write in flight; raise its error."""
        self.store.flush(CHECKPOINT_STAGE, self.key)

    def load(self) -> tuple[dict, dict[str, np.ndarray]] | None:
        """The latest checkpoint as ``(meta, arrays)``, or ``None``."""
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
        """Drop the checkpoint once its write in flight ends (called when the search completes)."""
        self.store.discard(CHECKPOINT_STAGE, self.key)
