"""The repo-invariant lint rules.

Each rule pins one convention that earlier PRs established by hand:

* ``dtype-literal`` — the float32 compute policy (PR 5) is owned by
  :mod:`repro.nn.dtype`; stray ``np.float64`` / ``dtype=float`` literals
  elsewhere silently re-introduce float64 compute or upcasts.
* ``rng-discipline`` — randomness flows through seeded
  ``np.random.Generator`` objects (see :mod:`repro.utils.random`); the
  module-global ``np.random.*`` API breaks reproducibility.
* ``obs-metric-naming`` — metric and span names follow the
  ``layer.component.name`` convention (PR 6) so ``repro report`` output
  stays groupable.
* ``lazy-export-sync`` — ``_LAZY_EXPORTS`` tables in ``__init__.py`` files
  must name attributes that actually exist in their target modules;
  a stale entry only explodes when somebody touches the name.
* ``unvalidated-index`` — the ``validated=True`` fast path of the scatter /
  fused kernels skips bounds checking; it is only sound in functions that
  obtained the edge index from a validating builder.
* ``backend-primitive`` — segment reductions (``reduceat``) and unbuffered
  scatter accumulation (``np.add.at`` and friends) are kernel primitives
  kept in one module, :mod:`repro.backends`; raw call sites elsewhere
  duplicate them and skip the uniform-degree fast path.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Iterator

from repro.analysis.lint.base import LintContext, LintRule, LintViolation

__all__ = [
    "DtypeLiteralRule",
    "RngDisciplineRule",
    "ObsMetricNamingRule",
    "LazyExportSyncRule",
    "UnvalidatedIndexRule",
    "BackendPrimitiveRule",
    "ALL_RULES",
]

_NAME_RE_METRIC = r"[a-z][a-z0-9_]*"


def _attribute_chain(node: ast.AST) -> str:
    """Dotted rendering of a Name/Attribute chain (``''`` for anything else)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class DtypeLiteralRule(LintRule):
    """No ``np.float64`` / ``dtype=float`` literals outside the policy module."""

    name = "dtype-literal"
    description = (
        "float64/dtype=float literals are only allowed in repro/nn/dtype.py "
        "(use WIDE_DTYPE or the dtype policy helpers)"
    )

    _EXEMPT_MODULES = {"repro.nn.dtype"}

    def check(self, context: LintContext) -> Iterator[LintViolation]:
        if context.module in self._EXEMPT_MODULES:
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute) and node.attr == "float64":
                chain = _attribute_chain(node)
                if chain in ("np.float64", "numpy.float64"):
                    yield context.violation(
                        self.name,
                        node,
                        f"{chain} literal; import WIDE_DTYPE (or a policy helper) "
                        "from repro.nn.dtype instead",
                    )
            elif isinstance(node, ast.keyword) and node.arg == "dtype":
                if isinstance(node.value, ast.Name) and node.value.id == "float":
                    yield context.violation(
                        self.name,
                        node.value,
                        "dtype=float is platform float64; use the repro.nn.dtype policy",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "astype"
                    and len(node.args) == 1
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "float"
                ):
                    yield context.violation(
                        self.name,
                        node,
                        "astype(float) upcasts to float64; use the repro.nn.dtype policy",
                    )


class RngDisciplineRule(LintRule):
    """No module-global ``np.random.*`` calls; use seeded generators."""

    name = "rng-discipline"
    description = (
        "module-global np.random.* RNG is forbidden; construct seeded "
        "generators via repro.utils.random"
    )

    _EXEMPT_MODULES = {"repro.utils.random"}
    #: Names of numpy.random that construct/annotate generators (allowed).
    _ALLOWED = {
        "Generator",
        "default_rng",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }

    def check(self, context: LintContext) -> Iterator[LintViolation]:
        if context.module in self._EXEMPT_MODULES:
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute):
                chain = _attribute_chain(node)
                parts = chain.split(".")
                if (
                    len(parts) == 3
                    and parts[0] in ("np", "numpy")
                    and parts[1] == "random"
                    and parts[2] not in self._ALLOWED
                ):
                    yield context.violation(
                        self.name,
                        node,
                        f"{chain} uses the module-global RNG; take an explicit seeded "
                        "np.random.Generator (see repro.utils.random)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for alias in node.names:
                    if alias.name != "*" and alias.name not in self._ALLOWED:
                        yield context.violation(
                            self.name,
                            node,
                            f"importing '{alias.name}' from numpy.random bypasses seeded "
                            "generators; use repro.utils.random",
                        )


class ObsMetricNamingRule(LintRule):
    """Metric/span name literals follow the ``layer.component.name`` convention."""

    name = "obs-metric-naming"
    description = (
        "metric names must be 3-4 lowercase dot-separated segments, span names 2-4 "
        "(layer.component.name)"
    )

    _METRIC_METHODS = {"count", "set_gauge", "observe", "gauge", "histogram"}
    _SPAN_METHODS = {"span"}
    _ALLOWED_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789._")

    @staticmethod
    def _looks_like(receiver: ast.AST, substring: str, factory: str) -> bool:
        """Heuristic receiver classification: ``*metrics*`` names or ``get_metrics()`` calls."""
        if isinstance(receiver, ast.Call):
            chain = _attribute_chain(receiver.func)
            return chain.split(".")[-1] == factory
        chain = _attribute_chain(receiver)
        return substring in chain.split(".")[-1].lower() if chain else False

    def _segment_count_ok(self, name: str, low: int, high: int) -> bool:
        segments = name.split(".")
        if not low <= len(segments) <= high:
            return False
        return all(re.fullmatch(_NAME_RE_METRIC, segment) for segment in segments)

    def _check_name(
        self, context: LintContext, node: ast.AST, kind: str, low: int, high: int
    ) -> Iterator[LintViolation]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if not self._segment_count_ok(node.value, low, high):
                yield context.violation(
                    self.name,
                    node,
                    f"{kind} name '{node.value}' does not match the layer.component.name "
                    f"convention ({low}-{high} lowercase dot-separated segments)",
                )
        elif isinstance(node, ast.JoinedStr):
            for fragment in node.values:
                if isinstance(fragment, ast.Constant) and isinstance(fragment.value, str):
                    if not set(fragment.value) <= self._ALLOWED_CHARS:
                        yield context.violation(
                            self.name,
                            node,
                            f"{kind} name fragment '{fragment.value}' contains characters "
                            "outside [a-z0-9_.]",
                        )

    def check(self, context: LintContext) -> Iterator[LintViolation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "trace_span":
                yield from self._check_name(context, node.args[0], "span", 2, 4)
            elif isinstance(func, ast.Attribute):
                if func.attr in self._METRIC_METHODS and self._looks_like(
                    func.value, "metrics", "get_metrics"
                ):
                    yield from self._check_name(context, node.args[0], "metric", 3, 4)
                elif func.attr in self._SPAN_METHODS and self._looks_like(
                    func.value, "tracer", "get_tracer"
                ):
                    yield from self._check_name(context, node.args[0], "span", 2, 4)


class LazyExportSyncRule(LintRule):
    """``_LAZY_EXPORTS`` entries must resolve to real attributes of their targets."""

    name = "lazy-export-sync"
    description = (
        "_LAZY_EXPORTS tables in __init__.py files must name attributes that exist "
        "in the target modules"
    )

    def check(self, context: LintContext) -> Iterator[LintViolation]:
        if context.path.name != "__init__.py":
            return
        for node in context.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "_LAZY_EXPORTS" not in targets or not isinstance(node.value, ast.Dict):
                continue
            for key, value in zip(node.value.keys, node.value.values):
                if not (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    continue
                yield from self._check_entry(context, key, key.value, value.value)

    def _check_entry(
        self, context: LintContext, node: ast.AST, attribute: str, target: str
    ) -> Iterator[LintViolation]:
        module_path = self._resolve_module(context, target)
        if module_path is None:
            yield context.violation(
                self.name,
                node,
                f"lazy export '{attribute}' points at unresolvable module '{target}'",
            )
            return
        if attribute not in self._module_names(module_path):
            yield context.violation(
                self.name,
                node,
                f"lazy export '{attribute}' is not defined in '{target}' ({module_path})",
            )

    @staticmethod
    def _resolve_module(context: LintContext, target: str) -> pathlib.Path | None:
        parts = target.split(".")
        if parts[0] != context.root.name:
            return None
        base = context.root.parent.joinpath(*parts)
        if base.with_suffix(".py").is_file():
            return base.with_suffix(".py")
        if (base / "__init__.py").is_file():
            return base / "__init__.py"
        return None

    @staticmethod
    def _module_names(path: pathlib.Path) -> set[str]:
        """Names bound (or lazily re-exported) at the top level of ``path``."""
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError:
            return set()
        names: set[str] = set()

        def bind_target(target: ast.AST) -> None:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    bind_target(element)

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    bind_target(target)
                # A nested _LAZY_EXPORTS table re-exports its keys.
                if (
                    any(isinstance(t, ast.Name) and t.id == "_LAZY_EXPORTS" for t in node.targets)
                    and isinstance(node.value, ast.Dict)
                ):
                    for key in node.value.keys:
                        if isinstance(key, ast.Constant) and isinstance(key.value, str):
                            names.add(key.value)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        names.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
        return names


class UnvalidatedIndexRule(LintRule):
    """``validated=True`` only in functions that validate (or build) the index."""

    name = "unvalidated-index"
    description = (
        "passing validated=True to scatter/message/fused ops requires the enclosing "
        "function to call a validating builder (validate_index, *_graph, ...)"
    )

    #: Kernels whose ``validated=True`` skips bounds checks.
    _GUARDED_CALLEES = {
        "scatter",
        "scatter_sum",
        "scatter_mean",
        "scatter_max",
        "scatter_min",
        "build_messages",
        "fused_aggregate",
        "fused_edgeconv",
        "propagate",
    }
    #: Calls that establish index validity within the same function.
    _VALIDATORS = {
        "validate_index",
        "validate_edge_index",
        "_pool_batch",
        "_build_graph",
        "batched_knn_graph",
        "batched_random_graph",
        "knn_graph",
        "random_graph",
    }
    #: The kernels' own modules (they implement the contract, not consume it).
    _EXEMPT_MODULES = {"repro.graph.scatter", "repro.graph.fused", "repro.graph.message"}

    def check(self, context: LintContext) -> Iterator[LintViolation]:
        if context.module in self._EXEMPT_MODULES:
            return
        yield from self._walk(context, context.tree, enclosing_calls=None)

    def _walk(
        self,
        context: LintContext,
        node: ast.AST,
        enclosing_calls: set[str] | None,
    ) -> Iterator[LintViolation]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = {
                    name
                    for call in ast.walk(child)
                    if isinstance(call, ast.Call)
                    for name in [self._callee_name(call)]
                    if name
                }
                yield from self._walk(context, child, calls)
                continue
            if isinstance(child, ast.Call):
                yield from self._check_call(context, child, enclosing_calls)
            yield from self._walk(context, child, enclosing_calls)

    @staticmethod
    def _callee_name(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return ""

    def _check_call(
        self,
        context: LintContext,
        call: ast.Call,
        enclosing_calls: set[str] | None,
    ) -> Iterator[LintViolation]:
        callee = self._callee_name(call)
        if callee not in self._GUARDED_CALLEES:
            return
        passes_validated = any(
            keyword.arg == "validated"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in call.keywords
        )
        if not passes_validated:
            return
        if enclosing_calls is None or not (enclosing_calls & self._VALIDATORS):
            yield context.violation(
                self.name,
                call,
                f"{callee}(validated=True) in a function that never validates the "
                "index; call validate_index/validate_edge_index or a graph builder, "
                "or waive with a justification",
            )


class BackendPrimitiveRule(LintRule):
    """Kernel primitives (``reduceat`` / ufunc ``.at``) live in ``repro.backends``."""

    name = "backend-primitive"
    description = (
        "reduceat / ufunc .at calls belong in repro.backends; call its "
        "segment_reduce / index_sum kernels instead"
    )

    #: Ufunc receivers whose unbuffered ``.at`` form is a scatter primitive.
    _UFUNC_NAMES = {"add", "maximum", "minimum", "subtract", "multiply", "divide", "reducer"}
    _EXEMPT_MODULE = "repro.backends"

    def check(self, context: LintContext) -> Iterator[LintViolation]:
        if context.module == self._EXEMPT_MODULE:
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            attribute = node.func.attr
            if attribute == "reduceat":
                chain = _attribute_chain(node.func) or "<expr>.reduceat"
                yield context.violation(
                    self.name,
                    node,
                    f"{chain} is a segment-reduction primitive; call "
                    "repro.backends.segment_reduce instead",
                )
            elif attribute == "at" and self._is_ufunc_receiver(node.func.value):
                chain = _attribute_chain(node.func) or "<expr>.at"
                yield context.violation(
                    self.name,
                    node,
                    f"{chain} is an unbuffered scatter primitive; call "
                    "repro.backends.index_sum (a row sum by index) or "
                    "segment_reduce (sorted segments) instead",
                )

    def _is_ufunc_receiver(self, receiver: ast.AST) -> bool:
        chain = _attribute_chain(receiver)
        if not chain:
            return False
        parts = chain.split(".")
        if parts[0] in ("np", "numpy"):
            return True
        return parts[-1] in self._UFUNC_NAMES


#: Default rule set, in reporting order.
ALL_RULES: tuple[type[LintRule], ...] = (
    DtypeLiteralRule,
    RngDisciplineRule,
    ObsMetricNamingRule,
    LazyExportSyncRule,
    UnvalidatedIndexRule,
    BackendPrimitiveRule,
)
