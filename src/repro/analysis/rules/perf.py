"""Performance rules: PERF002 (Python loop over a numpy array) and
PERF003 (array world rebuilt in a loop).

PERF002 — iterating a numpy array element by element from Python
(``for x in arr`` or ``arr[i]`` with a loop index) pays a boxed
``np.float64`` allocation per element and defeats the point of holding
the data in an array.  The vectorised-kernel convention
(:mod:`repro.core.kernels`) is: batch the operation as array
expressions, or — when per-element Python work is genuinely required,
e.g. the RNG-ordered cost loop — convert once with ``.tolist()`` and
loop over native objects.  Scoped to ``repro.core`` / ``repro.network``,
the layers that hold hot-path arrays.

PERF003 — :class:`repro.core.kernels.WorldArrays` and
:class:`~repro.core.kernels.BatchPlanner` are built to be constructed
*once* and kept fresh through version counters (``neighbors_version``,
``availability_version``, ``liveness_version``); rebuilding one per loop
iteration re-snapshots the whole overlay (O(N·d) + allocation) on every
pass and throws away all cached frontier state.  The regression is easy
to introduce — a per-round helper that "just makes a view" — and
profiling PR 5 showed the per-round ``KernelView`` constructions alone
cost ~8% of the scenario hot path, which is why the planner now lives on
the builder.  Scoped like PERF002.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.astutils import dotted_name
from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register


@register
class NumpyElementLoopRule(Rule):
    """PERF002: per-element Python iteration over a numpy array."""

    code = "PERF002"
    name = "python-loop-over-array"
    rationale = (
        "a Python-level loop over a numpy array boxes every element into "
        "a fresh np.float64 and round-trips the interpreter per item — "
        "the exact overhead the array representation exists to avoid.  "
        "Batch the work as vectorised array expressions (see "
        "repro.core.kernels); when per-element Python work is required "
        "(e.g. an RNG-ordered draw sequence), convert once with "
        ".tolist() and iterate native objects."
    )

    #: Layers that hold hot-path arrays; experiment/reporting code may
    #: iterate small result arrays without it mattering.
    _SCOPES = ("repro.core.", "repro.network.")

    #: Methods that leave array-land: their results are native objects,
    #: so names assigned from them are exempt (and assigning through
    #: ``.tolist()`` is exactly the sanctioned fix).
    _UNTAINT_METHODS = frozenset({"tolist", "item", "tobytes"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module.startswith(self._SCOPES):
            return
        if not any(v == "numpy" or v.startswith("numpy.") for v in ctx.imports.values()):
            return
        tainted = self._array_names(ctx)
        findings: List[Finding] = []
        self._visit(ctx, ctx.tree, tainted, loop_vars=set(), out=findings)
        yield from findings

    # -- taint collection -------------------------------------------------
    def _array_names(self, ctx: FileContext) -> Set[str]:
        """Names assigned (anywhere in the file) from a numpy call.

        Flow-insensitive: one numpy-producing assignment taints the name
        for the whole file; one ``.tolist()`` / ``.item()`` assignment
        untaints it again.  Parameters and attribute chains are not
        tracked — a heuristic with a small, noqa-able false surface.
        """
        tainted: Set[str] = set()
        untainted: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if self._is_numpy_call(ctx, node.value):
                tainted.add(target.id)
            elif (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in self._UNTAINT_METHODS
            ):
                untainted.add(target.id)
        return tainted - untainted

    def _is_numpy_call(self, ctx: FileContext, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        name = dotted_name(value.func)
        if name is None:
            return False
        head, _, rest = name.partition(".")
        resolved = ctx.imports.get(head)
        if resolved is None:
            return False
        full = f"{resolved}.{rest}" if rest else resolved
        return full == "numpy" or full.startswith("numpy.")

    # -- traversal --------------------------------------------------------
    def _visit(
        self,
        ctx: FileContext,
        node: ast.AST,
        tainted: Set[str],
        loop_vars: Set[str],
        out: List[Finding],
    ) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_iterable(ctx, node.iter, tainted, out)
            self._visit(ctx, node.iter, tainted, loop_vars, out)
            inner = loop_vars | self._target_names(node.target)
            for stmt in list(node.body) + list(node.orelse):
                self._visit(ctx, stmt, tainted, inner, out)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            inner = set(loop_vars)
            for comp in node.generators:
                self._check_iterable(ctx, comp.iter, tainted, out)
                self._visit(ctx, comp.iter, tainted, inner, out)
                inner = inner | self._target_names(comp.target)
                for cond in comp.ifs:
                    self._visit(ctx, cond, tainted, inner, out)
            elts = (
                [node.key, node.value]
                if isinstance(node, ast.DictComp)
                else [node.elt]
            )
            for elt in elts:
                self._visit(ctx, elt, tainted, inner, out)
            return
        if isinstance(node, ast.Subscript) and loop_vars:
            base, idx = node.value, node.slice
            if (
                isinstance(base, ast.Name)
                and base.id in tainted
                and isinstance(idx, ast.Name)
                and idx.id in loop_vars
            ):
                out.append(
                    self.finding(
                        ctx,
                        node,
                        f"scalar element access {base.id}[{idx.id}] per loop "
                        "iteration; vectorise the loop body or convert once "
                        f"with {base.id}.tolist()",
                    )
                )
                return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Loop variables do not leak into a nested function's body.
            body = node.body if not isinstance(node, ast.Lambda) else [node.body]
            for stmt in body:
                self._visit(ctx, stmt, tainted, set(), out)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(ctx, child, tainted, loop_vars, out)

    def _check_iterable(
        self, ctx: FileContext, iterable: ast.expr, tainted: Set[str], out: List[Finding]
    ) -> None:
        is_array = (
            isinstance(iterable, ast.Name) and iterable.id in tainted
        ) or self._is_numpy_call(ctx, iterable)
        if is_array:
            shown = dotted_name(iterable) or "array"
            out.append(
                self.finding(
                    ctx,
                    iterable,
                    f"element-wise Python iteration over numpy array "
                    f"{shown}; vectorise the loop body or convert once "
                    "with .tolist()",
                )
            )

    @staticmethod
    def _target_names(target: ast.expr) -> Set[str]:
        return {
            n.id for n in ast.walk(target) if isinstance(n, ast.Name)
        }


#: Constructors that snapshot the whole overlay into arrays; building one
#: is amortised setup, building one per iteration is the regression.
_WORLD_QUALNAMES = frozenset(
    {
        "repro.core.kernels.WorldArrays",
        "repro.core.kernels.BatchPlanner",
        "repro.core.kernels.KernelView",  # legacy name, kept so old code trips too
    }
)


@register
class ArrayWorldRebuildInLoopRule(Rule):
    """PERF003: WorldArrays/BatchPlanner constructed inside a loop."""

    code = "PERF003"
    name = "array-world-rebuild-in-loop"
    rationale = (
        "WorldArrays/BatchPlanner snapshot the whole overlay into CSR "
        "arrays at construction and stay fresh through version counters; "
        "constructing one per loop iteration pays the O(N*d) rebuild on "
        "every pass and discards all cached frontier state.  Build the "
        "world once outside the loop (e.g. keep it on the PathBuilder) "
        "and let ensure_fresh() notice changes."
    )

    #: Same layers PERF002 polices — where the hot-path arrays live.
    _SCOPES = ("repro.core.", "repro.network.")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module.startswith(self._SCOPES):
            return
        if not any(
            v in _WORLD_QUALNAMES or v.startswith("repro.core.kernels")
            for v in ctx.imports.values()
        ):
            return
        findings: List[Finding] = []
        self._visit(ctx, ctx.tree, in_loop=False, out=findings)
        yield from findings

    def _visit(
        self, ctx: FileContext, node: ast.AST, in_loop: bool, out: List[Finding]
    ) -> None:
        if in_loop and isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and self._resolves_to_world(ctx, name):
                out.append(
                    self.finding(
                        ctx,
                        node,
                        f"{name}(...) constructed inside a loop; the array "
                        "world is built once and kept fresh via version "
                        "counters — hoist the construction out of the loop",
                    )
                )
                # Still recurse into the arguments: a nested construction
                # (rare, but possible) is a second, distinct rebuild.
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            header = node.iter if isinstance(node, (ast.For, ast.AsyncFor)) else node.test
            self._visit(ctx, header, in_loop, out)
            for stmt in list(node.body) + list(node.orelse):
                self._visit(ctx, stmt, in_loop=True, out=out)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A def inside a loop only binds; per-iteration construction
            # inside the nested body is found on recursion from scratch.
            body = node.body if not isinstance(node, ast.Lambda) else [node.body]
            for stmt in body:
                self._visit(ctx, stmt, in_loop=False, out=out)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(ctx, child, in_loop, out)

    def _resolves_to_world(self, ctx: FileContext, name: str) -> bool:
        if name in _WORLD_QUALNAMES:
            return True
        head, _, rest = name.partition(".")
        resolved = ctx.imports.get(head)
        if resolved is None:
            return False
        full = f"{resolved}.{rest}" if rest else resolved
        return full in _WORLD_QUALNAMES

