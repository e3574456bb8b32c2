"""Registry of deployable searched architectures.

A :class:`DeployedModel` bundles everything the engine needs to serve one
searched architecture: the genotype, the instantiated (possibly trained)
:class:`~repro.nas.derived.DerivedModel`, the target
:class:`~repro.hardware.device.DeviceSpec` whose cost model drives
admission control, and an optional latency SLO.  The
:class:`ModelRegistry` stores entries by name and round-trips through
:mod:`repro.utils.serialization` (JSON metadata + one ``.npz`` of weights
per entry), so a deployment survives process restarts.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
from collections import OrderedDict
from dataclasses import dataclass

from repro.analysis.shapes import StaticSignature, infer_signature
from repro.analysis.validate import check_model_consistency, validate_architecture
from repro.hardware.device import DeviceSpec
from repro.nas.architecture import Architecture
from repro.nas.derived import DerivedModel
from repro.utils.serialization import load_json, load_npz, save_json, save_npz
from repro.version import __version__
from repro.defaults import DEFAULTS

__all__ = ["DeployedModel", "ModelRegistry"]

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


@dataclass
class DeployedModel:
    """One servable entry: architecture + executable model + target device."""

    name: str
    architecture: Architecture
    model: DerivedModel
    device: DeviceSpec
    num_classes: int
    k: int = DEFAULTS.k
    embed_dim: int = DEFAULTS.embed_dim
    seed: int = DEFAULTS.seed
    slo_ms: float | None = None
    #: Monotonic per-registry deployment counter; distinguishes successive
    #: deployments under the same name so engine caches never serve results
    #: computed by a replaced model.  Not persisted — every load is a fresh
    #: deployment.
    generation: int = 0
    #: Statically inferred I/O contract (repro.analysis); computed at
    #: registration, persisted with the entry, and used by the engine for
    #: O(1) request validation.
    signature: StaticSignature | None = None

    def __post_init__(self) -> None:
        if not _NAME_PATTERN.match(self.name):
            raise ValueError(
                f"invalid model name '{self.name}': use letters, digits, '_', '.', '-'"
            )
        if self.num_classes <= 1:
            raise ValueError(f"num_classes must be > 1, got {self.num_classes}")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms}")

    def metadata(self) -> dict[str, object]:
        """JSON-compatible description (everything except the weights)."""
        return {
            "name": self.name,
            "architecture": self.architecture.to_dict(),
            "device": dataclasses.asdict(self.device),
            "num_classes": self.num_classes,
            "k": self.k,
            "embed_dim": self.embed_dim,
            "seed": self.seed,
            "slo_ms": self.slo_ms,
            "signature": None if self.signature is None else self.signature.to_dict(),
        }


class ModelRegistry:
    """Named collection of deployed models with disk persistence."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, DeployedModel]" = OrderedDict()
        self._generation = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def register(
        self,
        name: str,
        architecture: Architecture,
        device: DeviceSpec,
        num_classes: int,
        k: int = DEFAULTS.k,
        embed_dim: int = DEFAULTS.embed_dim,
        seed: int = DEFAULTS.seed,
        slo_ms: float | None = None,
        model: DerivedModel | None = None,
        replace: bool = False,
    ) -> DeployedModel:
        """Register an architecture for serving.

        Args:
            name: Unique registry key.
            architecture: Searched genotype to deploy.
            device: Target device; its cost model drives admission control.
            num_classes: Output classes of the classifier head.
            k: Neighbourhood size used at inference time (default: the
                shared :class:`~repro.workspace.InferenceDefaults`, so the
                served scenario matches the searched one).
            embed_dim: Classifier-head embedding width.
            seed: Weight-initialisation seed (ignored when ``model`` given).
            slo_ms: Optional per-request latency budget on ``device``.
            model: Pre-built (e.g. trained) model; instantiated fresh if omitted.
            replace: Allow overwriting an existing entry of the same name.

        Raises:
            ValueError: When the architecture is statically invalid for the
                deployment scenario, or a supplied ``model`` is inconsistent
                with the genotype it is registered under.
        """
        if name in self._entries and not replace:
            raise ValueError(f"model '{name}' already registered (pass replace=True)")
        report = validate_architecture(
            architecture, k=k, num_classes=num_classes, embed_dim=embed_dim
        )
        if not report.ok:
            raise ValueError(
                f"cannot deploy '{name}': architecture fails static validation\n{report.format()}"
            )
        if model is None:
            model = DerivedModel(architecture, num_classes=num_classes, k=k, embed_dim=embed_dim, seed=seed)
        else:
            problems = check_model_consistency(model, architecture, num_classes, k)
            if problems:
                details = "\n".join(diag.format() for diag in problems)
                raise ValueError(
                    f"cannot deploy '{name}': model is inconsistent with its architecture\n{details}"
                )
        model.eval()
        self._generation += 1
        entry = DeployedModel(
            name=name,
            architecture=architecture,
            model=model,
            device=device,
            num_classes=num_classes,
            k=k,
            embed_dim=embed_dim,
            seed=seed,
            slo_ms=slo_ms,
            generation=self._generation,
            signature=report.signature,
        )
        self._entries[name] = entry
        return entry

    def add(self, deployed: DeployedModel, replace: bool = False) -> DeployedModel:
        """Adopt an existing :class:`DeployedModel` entry wholesale.

        Unlike re-calling :meth:`register` field by field, this preserves
        every field of the entry (including ones added to
        :class:`DeployedModel` later) and only stamps a fresh generation so
        engine caches never serve results computed by a replaced model.
        """
        if deployed.name in self._entries and not replace:
            raise ValueError(f"model '{deployed.name}' already registered (pass replace=True)")
        self._generation += 1
        signature = deployed.signature
        if signature is None:
            signature = infer_signature(
                deployed.architecture,
                deployed.num_classes,
                k=deployed.k,
                embed_dim=deployed.embed_dim,
            )
        entry = dataclasses.replace(deployed, generation=self._generation, signature=signature)
        entry.model.eval()
        self._entries[entry.name] = entry
        return entry

    def get(self, name: str) -> DeployedModel:
        """Return the entry for ``name`` (raises ``KeyError`` if absent)."""
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"no deployed model '{name}'; registered: {self.list()}") from None

    def list(self) -> list[str]:
        """Registered model names in insertion order."""
        return list(self._entries)

    def entries(self) -> list[DeployedModel]:
        """All registered entries in insertion order."""
        return list(self._entries.values())

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, directory: str | pathlib.Path) -> pathlib.Path:
        """Write the registry (metadata + per-entry weights) under ``directory``."""
        directory = pathlib.Path(directory)
        manifest = {
            "format": "repro.serving.registry/v1",
            "version": __version__,
            "entries": [entry.metadata() for entry in self._entries.values()],
        }
        save_json(directory / "registry.json", manifest)
        for entry in self._entries.values():
            save_npz(directory / "weights" / f"{entry.name}.npz", entry.model.state_dict())
        return directory

    @classmethod
    def load(cls, directory: str | pathlib.Path) -> "ModelRegistry":
        """Rebuild a registry saved with :meth:`save`."""
        directory = pathlib.Path(directory)
        manifest = load_json(directory / "registry.json")
        if manifest.get("format") != "repro.serving.registry/v1":
            raise ValueError(f"unrecognised registry format in {directory / 'registry.json'}")
        registry = cls()
        for meta in manifest["entries"]:
            architecture = Architecture.from_dict(meta["architecture"])
            device = DeviceSpec(**meta["device"])
            entry = registry.register(
                name=str(meta["name"]),
                architecture=architecture,
                device=device,
                num_classes=int(meta["num_classes"]),
                k=int(meta["k"]),
                embed_dim=int(meta["embed_dim"]),
                seed=int(meta["seed"]),
                slo_ms=None if meta["slo_ms"] is None else float(meta["slo_ms"]),
            )
            entry.model.load_state_dict(load_npz(directory / "weights" / f"{entry.name}.npz"))
            # Restore the signature computed at original deployment time
            # (e.g. its recorded compute dtype) rather than keeping the one
            # register() just re-inferred under the current policy.
            if meta.get("signature") is not None:
                entry.signature = StaticSignature.from_dict(meta["signature"])
        return registry
