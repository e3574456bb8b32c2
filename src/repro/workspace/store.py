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
offset)`` per array, and the checksum is a crc32 of the whole file, taken
from the bytes in memory before they are written.  It guards against torn
and rotted files, not against tampering.  A load is one read, the checksum
check, then ``np.frombuffer`` views.  (The model registry's snapshot keeps
``.npz`` files: it is an export, not on the search path.)

:meth:`ArtifactStore.save` commits before it returns.
:meth:`ArtifactStore.commit` serves overwritable entries (search
checkpoints): the caller takes a snapshot and a background writer
publishes it, one commit in flight per entry.

Every store also keeps an in-memory layer, so a root-less store (a
``Workspace`` built without a ``root``) still caches within its own
lifetime, while a rooted store survives process restarts.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
import uuid
import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

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

_FORMAT = "repro.workspace.artifact/v3"

#: The committed array file and the alignment of each array in it.
_ARRAYS = "arrays.bin"
_ALIGN = 64

#: Write attempts per save; retries absorb a concurrent discard() of the entry.
_SAVE_ATTEMPTS = 3

_LOGGER = get_logger("workspace.store")

#: Counters of :meth:`ArtifactStore.commit` outcomes: ``.published`` and ``.failed``.
_COMMITS = "workspace.store.commits"


#: The ``meta.json`` fields of an entry without arrays.
_NO_ARRAYS = '"arrays": false'


def _stamp_text(manifest: list, checksum: str) -> str:
    """The ``meta.json`` fields that stamp an entry's arrays, as JSON text."""
    return json.dumps({"arrays": True, "manifest": manifest, "checksum": checksum})[1:-1]


def _checksum(chunks) -> str:
    """crc32 of a sequence of byte buffers (the integrity stamp in meta.json)."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return f"{crc:08x}"


def _pack_arrays(arrays: Mapping[str, np.ndarray], buffer: np.ndarray | None = None) -> tuple[list, np.ndarray]:
    """Lay ``arrays`` out as ``arrays.bin`` holds them; return ``(manifest, bytes)``.

    The bytes are the head of ``buffer`` when it is large enough (a reused
    snapshot buffer), else of a new one; padding is zeroed either way.
    """
    manifest, values, offset = [], [], 0
    for name, value in arrays.items():
        value = np.asarray(value, order="C")  # ascontiguousarray would make 0-d arrays 1-d
        if value.dtype.hasobject:
            raise ValueError(f"array '{name}' has dtype {value.dtype}; only plain data arrays are stored")
        offset += -offset % _ALIGN
        manifest.append([name, value.dtype.str, list(value.shape), offset])
        values.append(value)
        offset += value.nbytes
    if buffer is None or buffer.size < offset:
        buffer = np.empty(offset, dtype=np.uint8)
    blob = buffer[:offset]
    # memoryview slice copies cost half of numpy's per array.
    target, end = memoryview(blob), 0
    for (_, _, _, start), value in zip(manifest, values):
        if start > end:
            target[end:start] = bytes(start - end)
        if value.nbytes:
            end = start + value.nbytes
            target[start:end] = memoryview(value).cast("B")
    return manifest, blob


def _unpack_arrays(blob, manifest: list) -> dict[str, np.ndarray]:
    """``np.frombuffer`` views of the arrays ``manifest`` lays out in ``blob``."""
    arrays = {}
    for name, dtype, shape, offset in manifest:
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64))
        arrays[name] = np.frombuffer(blob, dtype=dtype, count=count, offset=offset).reshape(tuple(shape))
    return arrays


def _meta_text(meta: Mapping[str, object]) -> str:
    """JSON text of ``meta``, as ``json.dumps(to_jsonable(meta))`` gives it for
    string keys, with plain containers left to the C encoder."""
    try:
        return json.dumps(meta, default=to_jsonable)
    except TypeError:  # a key the encoder refuses (e.g. a tuple); to_jsonable stringifies it
        return json.dumps(to_jsonable(meta))


def _write_arrays(path: pathlib.Path, blob: np.ndarray) -> str:
    """Write packed arrays to ``path`` in one call; return their checksum.

    Both the checksum and the write release the GIL.
    """
    with open(path, "wb") as handle:
        handle.write(blob)
    return _checksum((blob,))


def _read_arrays(path: pathlib.Path, manifest: list, checksum: str) -> dict[str, np.ndarray] | None:
    """The arrays of a flat file, or ``None`` if its bytes fail ``checksum``."""
    with open(path, "rb") as handle:
        blob = bytearray(os.fstat(handle.fileno()).st_size)
        handle.readinto(blob)
    if _checksum((blob,)) != checksum:
        return None
    return _unpack_arrays(blob, manifest)


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


class _Commit(NamedTuple):
    """A snapshot of one commit to an overwritable entry, taken by its committer."""

    meta_text: str  # the meta, encoded to JSON
    arrays: tuple[list, np.ndarray] | None  # (manifest, packed bytes); None keeps the entry's arrays


class _Slot:
    """Write-behind state of one overwritable entry: at most one commit in flight.

    A commit waits for the write before it and raises that write's error,
    then hands itself to a new writer thread; flush and discard wait the
    same way.  So no commit is queued behind a failed write, and a
    meta-only commit is published only after the array commit it keeps.
    The write in flight is never interrupted.  Two snapshot buffers
    alternate: one being written, one being filled.  One thread uses a slot.
    """

    def __init__(self, publish: Callable[[_Commit], None]):
        self._publish = publish
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None
        self._busy: np.ndarray | None = None  # the buffer of the latest array commit
        self._spare: np.ndarray | None = None  # the other buffer, free to fill

    def spare(self) -> np.ndarray | None:
        """A snapshot buffer no write uses, for an array commit about to be made."""
        return self._spare

    def _run(self, commit: _Commit) -> None:
        try:
            self._publish(commit)
        except BaseException as error:  # noqa: BLE001 - raised on the committer's thread
            self._error = error
            get_metrics().count(f"{_COMMITS}.failed")
        else:
            get_metrics().count(f"{_COMMITS}.published")

    def wait(self) -> None:
        """Wait for the write in flight; raise (once) the error it stopped on."""
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()
        error, self._error = self._error, None
        if error is not None:
            raise error

    def submit(self, commit: _Commit) -> None:
        """Start writing ``commit``; call after :meth:`wait`."""
        assert self._thread is None, "a write is in flight"
        if commit.arrays is not None:
            self._spare, self._busy = self._busy, commit.arrays[1].base  # the packed bytes view the buffer
        self._thread = threading.Thread(target=self._run, args=(commit,), name="repro-store-writer")
        self._thread.start()


class ArtifactStore:
    """Two-level (memory + optional disk) content-addressed artifact cache."""

    def __init__(self, root: str | pathlib.Path | None = None):
        self.root = pathlib.Path(root) if root is not None else None
        self._memory: dict[tuple[str, str], Artifact] = {}
        #: Write-behind state of the entries written through :meth:`commit`.
        self._slots: dict[tuple[str, str], _Slot] = {}
        #: The arrays stamp (JSON text) of each disk entry as this store last
        #: wrote or read it; ``None`` while its latest array write has not landed.
        self._stamps: dict[tuple[str, str], str | None] = {}
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

    def flush(self, stage: str, key: str) -> None:
        """Wait for the :meth:`commit` of ``(stage, key)`` in flight; raise its error."""
        slot = self._slots.get((stage, key))
        if slot is not None:
            slot.wait()

    def keys(self, stage: str) -> list[str]:
        """Every stored key of ``stage``, across the memory and disk layers."""
        for slot_stage, key in list(self._slots):
            if slot_stage == stage:
                self.flush(slot_stage, key)
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
        self.flush(stage, key)
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
            self._stamps[(stage, key)] = _stamp_text(document["manifest"], document["checksum"])
        else:
            self._stamps.pop((stage, key), None)
        return Artifact(stage=stage, key=key, meta=document["meta"], arrays=arrays, path=directory)

    def load(self, stage: str, key: str) -> Artifact | None:
        """Return the stored artifact, or ``None`` on a cache miss.

        A :meth:`commit` of the entry in flight ends first.  A damaged
        entry (torn write, bit rot, checksum mismatch against the stamp
        written at commit) is logged, discarded and reported as a miss, so
        the pipeline recomputes instead of consuming poisoned arrays or
        crashing mid-stage.
        """
        self.flush(stage, key)
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

    def _publish(
        self, stage: str, key: str, meta_text: str, packed: tuple[list, np.ndarray] | None, keep: bool = False
    ) -> None:
        """Write one commit to disk: arrays, then ``meta.json``, each by an atomic rename.

        ``packed`` is ``(manifest, bytes)`` from :func:`_pack_arrays`.
        Without it the entry commits no arrays or, with ``keep``, the
        arrays it last committed, under the stamp this store holds for them.
        An array write that fails leaves no stamp to keep (see :meth:`commit`).
        """
        directory = self._entry_dir(stage, key)
        arrays_path = directory / _ARRAYS
        if packed is None:
            stamp = self._stamps.get((stage, key), _NO_ARRAYS) if keep else _NO_ARRAYS
        else:
            self._stamps[(stage, key)] = None  # lost, unless this write lands
        # Both files are staged under unique temp names and committed with
        # atomic renames — arrays first, then meta.json.  load() only
        # trusts entries whose meta.json exists, so an interrupted commit
        # can neither read as a cache hit nor leave a truncated file that
        # poisons the key; and because temp names are unique (uuid, not a
        # fixed ".tmp"), any number of processes may race a commit of the
        # same key — each commit is one writer's complete bytes, last write
        # wins, a concurrent reader sees some complete version, never a torn
        # one.  A meta-only commit renames just meta.json, stamped with the
        # arrays it keeps.
        for attempt in range(_SAVE_ATTEMPTS):
            try:
                directory.mkdir(parents=True, exist_ok=True)
                token = uuid.uuid4().hex
                if packed is not None:
                    manifest, blob = packed
                    staging_arrays = directory / f".{token}.arrays.tmp"
                    # The checksum covers the exact committed bytes; load()
                    # verifies it before trusting the arrays.
                    stamp = _stamp_text(manifest, _write_arrays(staging_arrays, blob))
                    os.replace(staging_arrays, arrays_path)
                elif stamp == _NO_ARRAYS and arrays_path.exists():
                    arrays_path.unlink()
                staging_meta = directory / f".{token}.meta.tmp"
                with open(staging_meta, "w", encoding="utf-8") as handle:
                    handle.write(
                        f'{{"format": "{_FORMAT}", "stage": {json.dumps(stage)}, "key": {json.dumps(key)}, '
                        f'{stamp}, "meta": {meta_text}}}'
                    )
                os.replace(staging_meta, directory / "meta.json")
                break
            except (FileNotFoundError, FileExistsError):
                # A racing discard() can rmdir the entry directory between
                # our mkdir and a write (FileNotFoundError), or between
                # mkdir's EEXIST and its is_dir() check (FileExistsError);
                # a retry recreates it after the racer is done with it.
                if attempt == _SAVE_ATTEMPTS - 1:
                    raise
        if stamp == _NO_ARRAYS:
            self._stamps.pop((stage, key), None)
        else:
            self._stamps[(stage, key)] = stamp

    def save(
        self,
        stage: str,
        key: str,
        meta: Mapping[str, object],
        arrays: Mapping[str, np.ndarray] | None = None,
    ) -> Artifact:
        """Persist a stage result under ``(stage, key)``, overwriting any old entry.

        The commit is on disk when this returns; a :meth:`commit` of the
        entry in flight ends first.
        """
        meta = dict(meta)
        path = None
        if self.root is None:
            # Copy the arrays so later in-place mutation of live model
            # weights cannot corrupt the cached artifact.
            arrays = {name: np.array(value) for name, value in (arrays or {}).items()}
        else:
            self.flush(stage, key)
            packed = _pack_arrays(arrays) if arrays else None
            self._publish(stage, key, _meta_text(meta), packed)
            # The packed bytes are a private copy: the cached arrays view them.
            arrays = _unpack_arrays(packed[1], packed[0]) if packed is not None else {}
            path = self._entry_dir(stage, key)
        artifact = Artifact(stage=stage, key=key, meta=meta, arrays=arrays, path=path)
        self._memory[(stage, key)] = artifact
        return artifact

    def commit(
        self,
        stage: str,
        key: str,
        meta: Mapping[str, object],
        arrays: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Overwrite the entry ``(stage, key)`` from a background writer.

        The caller's thread only takes the snapshot: the meta encoded to
        JSON, and the arrays copied into one buffer laid out as
        ``arrays.bin`` is.  Without ``arrays`` the commit is meta-only and
        keeps the arrays of the entry's latest array commit (none, if this
        store has neither committed nor loaded any).  One commit is in
        flight: the next one, :meth:`load`, :meth:`contains`, :meth:`keys`,
        :meth:`save` and :meth:`discard` wait for it and raise its error.
        After a failed array write a meta-only commit raises, until arrays
        are committed again or loaded, so no ``meta.json`` is stamped with
        arrays the failed commit should have replaced.  Other stores (other
        processes) read the last published commit.  A memory-only store
        commits at once.  Outcomes are counted as
        ``workspace.store.commits.published`` and ``.failed``.
        """
        if self.root is None:
            previous = self._memory.get((stage, key))
            if arrays is None and previous is not None:
                arrays = previous.arrays
            self.save(stage, key, meta, arrays)
            get_metrics().count(f"{_COMMITS}.published")
            return
        slot = self._slots.get((stage, key))
        if slot is None:
            slot = self._slots[(stage, key)] = _Slot(
                lambda commit: self._publish(stage, key, commit.meta_text, commit.arrays, keep=True)
            )
        packed = None if arrays is None else _pack_arrays(arrays, slot.spare())
        meta_text = _meta_text(meta)
        slot.wait()
        if packed is None and self._stamps.get((stage, key), _NO_ARRAYS) is None:
            raise RuntimeError(f"{stage}/{key}: its last array write failed; commit the arrays again")
        # The disk entry is the latest commit's: the next load() reads it there.
        self._memory.pop((stage, key), None)
        slot.submit(_Commit(meta_text, packed))

    def discard(self, stage: str, key: str) -> bool:
        """Drop an artifact from both layers; returns whether anything existed.

        A :meth:`commit` of the entry in flight ends first; its error is
        raised once the entry is gone.
        """
        slot = self._slots.pop((stage, key), None)
        error = None
        if slot is not None:
            try:
                slot.wait()
            except BaseException as caught:  # noqa: BLE001 - raised below
                error = caught
        self._stamps.pop((stage, key), None)
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
        if error is not None:
            raise error
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
