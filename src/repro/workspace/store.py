"""Content-addressed artifact store backing the Workspace pipeline.

Artifacts are keyed by the sha256 of the canonical JSON of their inputs
(stage name, device spec, stage configuration, seeds, dataset
fingerprints), so *identical pipeline inputs always map to the same key*
and a repeated stage call is a cache hit instead of a recomputation.

On-disk layout (when a root directory is given)::

    <root>/<stage>/<key>/meta.json     # JSON: stage, key, payload metadata,
                                       # array manifest and checksum
    <root>/<stage>/<key>/arrays.bin    # optional: the arrays' raw bytes

``arrays.bin`` is the arrays' bytes back to back, each padded to a 64-byte
offset.  The manifest in ``meta.json`` lists ``(name, dtype, shape,
offset)`` per array, and the checksum is a blake2b digest of the whole
file, taken from the bytes in memory before they are written.  A load is
one read, the checksum check, then ``np.frombuffer`` views.  (The model
registry's snapshot keeps ``.npz`` files: it is an export, not on the
search path.)

Every store also keeps an in-memory layer, so a root-less store (a
``Workspace`` built without a ``root``) still caches within its own
lifetime, while a rooted store survives process restarts.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import uuid
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.faults import fault_point
from repro.obs.metrics import get_metrics
from repro.utils.logging import get_logger
from repro.utils.serialization import load_json, to_jsonable

__all__ = [
    "Artifact",
    "ArtifactStore",
    "canonical_key",
    "array_fingerprint",
    "dataset_fingerprint",
]

_FORMAT = "repro.workspace.artifact/v2"

#: The committed array file and the alignment of each array in it.
_ARRAYS = "arrays.bin"
_ALIGN = 64

#: Write attempts per save; retries absorb a concurrent discard() of the entry.
_SAVE_ATTEMPTS = 3

_LOGGER = get_logger("workspace.store")


def _checksum(chunks) -> str:
    """blake2b digest of a sequence of byte buffers (the integrity stamp in meta.json)."""
    digest = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _write_arrays(path: pathlib.Path, arrays: Mapping[str, np.ndarray]) -> tuple[list, str]:
    """Write ``arrays`` to ``path`` as one flat file; return ``(manifest, checksum)``."""
    manifest, chunks, offset = [], [], 0
    for name, value in arrays.items():
        value = np.asarray(value, order="C")  # ascontiguousarray would make 0-d arrays 1-d
        if value.dtype.hasobject:
            raise ValueError(f"array '{name}' has dtype {value.dtype}; only plain data arrays are stored")
        padding = -offset % _ALIGN
        if padding:
            chunks.append(bytes(padding))
            offset += padding
        manifest.append([name, value.dtype.str, list(value.shape), offset])
        chunks.append(value.reshape(-1).view(np.uint8))
        offset += value.nbytes
    with open(path, "wb") as handle:
        handle.writelines(chunks)
    return manifest, _checksum(chunks)


def _read_arrays(path: pathlib.Path, manifest: list, checksum: str) -> dict[str, np.ndarray] | None:
    """The arrays of a flat file, or ``None`` if its bytes fail ``checksum``."""
    with open(path, "rb") as handle:
        blob = bytearray(os.fstat(handle.fileno()).st_size)
        handle.readinto(blob)
    if _checksum((blob,)) != checksum:
        return None
    arrays = {}
    for name, dtype, shape, offset in manifest:
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64))
        arrays[name] = np.frombuffer(blob, dtype=dtype, count=count, offset=offset).reshape(tuple(shape))
    return arrays


def canonical_key(payload: object, digits: int = 16) -> str:
    """Hex digest of the canonical (sorted, compact) JSON form of ``payload``."""
    blob = json.dumps(to_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:digits]


def array_fingerprint(arrays: Mapping[str, np.ndarray], digits: int = 16) -> str:
    """Content hash of a named-array mapping (e.g. a model ``state_dict``)."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.tobytes())
    return digest.hexdigest()[:digits]


def dataset_fingerprint(dataset, digits: int = 16) -> str:
    """Content hash of an :class:`~repro.data.dataset.InMemoryDataset`."""
    digest = hashlib.sha256()
    digest.update(str(dataset.num_classes).encode("utf-8"))
    for sample in dataset:
        digest.update(np.ascontiguousarray(sample.points).tobytes())
        digest.update(str(sample.label).encode("utf-8"))
    return digest.hexdigest()[:digits]


@dataclass
class Artifact:
    """One stored stage result: JSON metadata plus optional weight arrays."""

    stage: str
    key: str
    meta: dict
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    path: pathlib.Path | None = None


class ArtifactStore:
    """Two-level (memory + optional disk) content-addressed artifact cache."""

    def __init__(self, root: str | pathlib.Path | None = None):
        self.root = pathlib.Path(root) if root is not None else None
        self._memory: dict[tuple[str, str], Artifact] = {}
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # ------------------------------------------------------------------ #
    def key_for(self, stage: str, inputs: Mapping[str, object]) -> str:
        """Content key for a stage invocation described by ``inputs``."""
        return canonical_key({"stage": stage, "inputs": inputs})

    def _entry_dir(self, stage: str, key: str) -> pathlib.Path:
        assert self.root is not None
        return self.root / stage / key

    def keys(self, stage: str) -> list[str]:
        """Every stored key of ``stage``, across the memory and disk layers."""
        found = {key for (stored_stage, key) in self._memory if stored_stage == stage}
        if self.root is not None:
            stage_dir = self.root / stage
            if stage_dir.is_dir():
                for entry in stage_dir.iterdir():
                    if (entry / "meta.json").exists():
                        found.add(entry.name)
        return sorted(found)

    def contains(self, stage: str, key: str) -> bool:
        """Whether an artifact exists (without counting a hit or a miss)."""
        if (stage, key) in self._memory:
            return True
        return self.root is not None and (self._entry_dir(stage, key) / "meta.json").exists()

    def _drop_corrupt(self, stage: str, key: str, reason: str) -> None:
        """Discard a damaged entry so the caller falls through to recompute."""
        self.corrupt += 1
        get_metrics().count("workspace.store.corrupt")
        _LOGGER.warning("discarding corrupt artifact %s/%s: %s", stage, key, reason)
        self.discard(stage, key)

    def _load_disk(self, stage: str, key: str) -> Artifact | None:
        """Disk-layer read: verified artifact, or ``None`` (absent/corrupt/older format)."""
        assert self.root is not None
        directory = self._entry_dir(stage, key)
        arrays_path = directory / _ARRAYS
        try:
            document = load_json(directory / "meta.json")
        except FileNotFoundError:
            return None  # never written, or a racing discard
        except ValueError:
            self._drop_corrupt(stage, key, "unreadable meta.json")
            return None
        if document.get("format") != _FORMAT:
            # An older layout (or a foreign file): a miss, recomputed and
            # overwritten by the next save.
            _LOGGER.info("ignoring %s/%s in format %r", stage, key, document.get("format"))
            return None
        arrays: dict[str, np.ndarray] = {}
        # The meta document records whether the entry has arrays, so a
        # marker that promises arrays whose file is gone reads as a racing
        # discard, never as an artifact with silently-empty arrays.
        if document.get("arrays"):
            spec = fault_point("workspace.store.load", stage=stage, key=key)
            if spec is not None and spec.action == "corrupt" and arrays_path.exists():
                with open(arrays_path, "r+b") as handle:  # truncate: real recovery path runs
                    handle.truncate(max(arrays_path.stat().st_size // 2, 1))
            try:
                loaded = _read_arrays(arrays_path, document["manifest"], document["checksum"])
            except FileNotFoundError:
                return None  # racing discard between the meta and arrays reads
            except (KeyError, TypeError, ValueError, OSError):
                self._drop_corrupt(stage, key, f"unreadable {_ARRAYS}")
                return None
            if loaded is None:
                self._drop_corrupt(stage, key, f"{_ARRAYS} checksum mismatch")
                return None
            arrays = loaded
        return Artifact(stage=stage, key=key, meta=document["meta"], arrays=arrays, path=directory)

    def load(self, stage: str, key: str) -> Artifact | None:
        """Return the stored artifact, or ``None`` on a cache miss.

        A damaged entry (torn write, bit rot, checksum mismatch against the
        stamp written by :meth:`save`) is logged, discarded and reported as
        a miss, so the pipeline recomputes instead of consuming poisoned
        arrays or crashing mid-stage.
        """
        memo = self._memory.get((stage, key))
        if memo is not None:
            self.hits += 1
            return memo
        if self.root is not None:
            artifact = self._load_disk(stage, key)
            if artifact is not None:
                self._memory[(stage, key)] = artifact
                self.hits += 1
                return artifact
        self.misses += 1
        return None

    @staticmethod
    def _committed_stamp(directory: pathlib.Path) -> dict:
        """The committed entry's array stamp: ``{"arrays": bool}`` plus its manifest and checksum."""
        try:
            document = load_json(directory / "meta.json")
        except (FileNotFoundError, ValueError):
            return {"arrays": False}
        if document.get("format") != _FORMAT or not document.get("arrays"):
            return {"arrays": False}
        return {name: document[name] for name in ("arrays", "manifest", "checksum") if name in document}

    def save(
        self,
        stage: str,
        key: str,
        meta: Mapping[str, object],
        arrays: Mapping[str, np.ndarray] | None = None,
        keep_arrays: bool = False,
    ) -> Artifact:
        """Persist a stage result under ``(stage, key)``, overwriting any old entry.

        With ``keep_arrays`` the commit replaces only the meta document: the
        entry keeps its committed arrays and their checksum (an empty slot
        commits none), so an unchanged set of weights is never rewritten.
        A rooted store keeps them on disk only, and the artifact it returns
        carries none: the next :meth:`load` reads and verifies them.
        """
        meta = dict(meta)
        if keep_arrays:
            if arrays:
                raise ValueError("keep_arrays commits the meta document only; pass no arrays")
            previous = self._memory.get((stage, key))
            arrays = previous.arrays if previous is not None and self.root is None else {}
        else:
            # Copy the arrays so later in-place mutation of live model
            # weights cannot corrupt the cached artifact.
            arrays = {name: np.array(value) for name, value in (arrays or {}).items()}
        path = None
        if self.root is not None:
            directory = self._entry_dir(stage, key)
            # Both files are staged under unique temp names and committed
            # with atomic renames — arrays first, then meta.json.  load()
            # only trusts entries whose meta.json exists, so an interrupted
            # save can neither read as a cache hit nor leave a truncated
            # file that poisons the key; and because temp names are unique
            # (uuid, not a fixed ".tmp"), any number of processes may race
            # a save of the same key — each commit is one writer's complete
            # bytes, last write wins, a concurrent reader sees some complete
            # version, never a torn one.  A meta-only commit renames just
            # meta.json, stamped with the arrays it keeps.
            for attempt in range(_SAVE_ATTEMPTS):
                try:
                    directory.mkdir(parents=True, exist_ok=True)
                    token = uuid.uuid4().hex
                    arrays_path = directory / _ARRAYS
                    if keep_arrays:
                        stamp = self._committed_stamp(directory)
                    elif arrays:
                        staging_arrays = directory / f".{token}.arrays.tmp"
                        manifest, checksum = _write_arrays(staging_arrays, arrays)
                        # The checksum covers the exact committed bytes;
                        # load() verifies it before trusting the arrays.
                        stamp = {"arrays": True, "manifest": manifest, "checksum": checksum}
                        os.replace(staging_arrays, arrays_path)
                    else:
                        stamp = {"arrays": False}
                    if not stamp["arrays"] and arrays_path.exists():
                        arrays_path.unlink()
                    staging_meta = directory / f".{token}.meta.tmp"
                    # The manifest is plain JSON already: only the caller's
                    # meta goes through the converter.
                    document = {"format": _FORMAT, "stage": stage, "key": key, "meta": to_jsonable(meta), **stamp}
                    with open(staging_meta, "w", encoding="utf-8") as handle:
                        handle.write(json.dumps(document, sort_keys=True))
                    os.replace(staging_meta, directory / "meta.json")
                    break
                except (FileNotFoundError, FileExistsError):
                    # A racing discard() can rmdir the entry directory between
                    # our mkdir and a write (FileNotFoundError), or between
                    # mkdir's EEXIST and its is_dir() check (FileExistsError);
                    # a retry recreates it after the racer is done with it.
                    if attempt == _SAVE_ATTEMPTS - 1:
                        raise
            path = directory
        artifact = Artifact(stage=stage, key=key, meta=meta, arrays=arrays, path=path)
        if keep_arrays and path is not None:
            # The disk entry holds the kept arrays: the next load() reads
            # them there and verifies their checksum.
            self._memory.pop((stage, key), None)
        else:
            self._memory[(stage, key)] = artifact
        return artifact

    def discard(self, stage: str, key: str) -> bool:
        """Drop an artifact from both layers; returns whether anything existed."""
        existed = self._memory.pop((stage, key), None) is not None
        if self.root is not None:
            directory = self._entry_dir(stage, key)
            if directory.is_dir():
                # Only the committed files are deleted — meta.json (the
                # commit marker) first, so a racing reader sees "no entry",
                # never a marker whose arrays were deleted from under it.
                # Staging files belong to in-flight saves of other processes
                # and must survive (their os.replace will commit them).
                for name in ("meta.json", _ARRAYS):
                    try:
                        (directory / name).unlink()
                        existed = True
                    except FileNotFoundError:  # racing discard/save
                        pass
                try:
                    directory.rmdir()
                except OSError:  # refilled (or never emptied) by a racer
                    pass
        return existed

    def stats(self) -> dict[str, object]:
        """Hit/miss counters and the store location."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "memory_entries": len(self._memory),
            "root": None if self.root is None else str(self.root),
        }
