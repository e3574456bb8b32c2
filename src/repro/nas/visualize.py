"""Text visualisation of architectures (the paper's Fig. 10)."""

from __future__ import annotations

from repro.nas.architecture import Architecture

__all__ = ["render_architecture", "architecture_summary"]


def render_architecture(architecture: Architecture, title: str | None = None) -> str:
    """Render an architecture as a vertical op chain (Fig. 10 style).

    Adjacent KNN operations are already merged by
    :meth:`Architecture.effective_ops`, matching the paper's note that
    duplicate graph constructions are removed during execution.
    """
    lines: list[str] = []
    header = title or architecture.name or "architecture"
    lines.append(header)
    lines.append("=" * len(header))
    for op in architecture.effective_ops():
        lines.append(f"  {op.describe()}")
        lines.append("    |")
    lines.append("  Classifier")
    return "\n".join(lines)


def architecture_summary(architecture: Architecture) -> dict[str, object]:
    """Structured summary used by experiment reports."""
    ops = architecture.effective_ops()
    return {
        "name": architecture.name or "architecture",
        "num_positions": architecture.num_positions,
        "num_effective_ops": len(ops),
        "num_samples": sum(1 for op in ops if op.kind == "sample"),
        "num_aggregates": sum(1 for op in ops if op.kind == "aggregate"),
        "num_combines": sum(1 for op in ops if op.kind == "combine"),
        "num_skips": sum(1 for op in ops if op.kind == "connect_skip"),
        "output_dim": architecture.output_dim(),
        "ops": [op.describe() for op in ops] + ["Classifier"],
    }
