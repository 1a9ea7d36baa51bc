"""ARCH001: import-layering violations.

The dependency layering this repo maintains::

    repro.sim.rng          <- leaf: stdlib + numpy only
    repro.{core,gametheory,network,payment,sim}   <- simulation layers
    repro.obs              <- observational side-layer (wired lazily from
                              core; eager from network/payment/sim where
                              the bus is a constructor dependency)
    repro.experiments      <- harness: may import everything below
    repro.fleet            <- orchestrator: may import the harness and obs;
                              nothing below may import it back
    repro.analysis         <- dev tooling: stdlib only, imports nothing above

Three properties are enforced mechanically:

- ``repro.core`` / ``repro.gametheory`` never import ``repro.experiments``
  or ``repro.obs`` at module scope (lazy function-level or
  ``TYPE_CHECKING`` imports are fine) — the paper-facing model layers
  must be loadable, and testable, without dragging in the harness or the
  obs machinery;
- ``repro.sim.rng`` imports nothing stateful — it is the determinism
  root, and a stray dependency there can consume entropy or observe
  import order before any seed is set;
- nothing below the harness imports ``repro.experiments`` at module
  scope, and nothing outside ``repro.fleet`` itself imports
  ``repro.fleet`` at module scope — the sweep orchestrator sits at the
  very top of the stack (it may depend on the harness and obs, never
  the reverse; the ``repro fleet`` CLI wiring defers its import into
  the handler).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

#: Import roots ``repro.sim.rng`` may use: pure, stateless machinery.
_RNG_ALLOWED_ROOTS = frozenset(
    {"__future__", "typing", "numpy", "math", "abc", "dataclasses", "collections"}
)

#: Layers that must not import the experiment harness at module scope.
_NO_EXPERIMENTS_PREFIXES = (
    "repro.core",
    "repro.gametheory",
    "repro.network",
    "repro.payment",
    "repro.sim",
    "repro.obs",
    "repro.adversary",
    "repro.analysis",
)

#: Layers that must not import the obs side-layer at module scope.
_NO_OBS_PREFIXES = ("repro.core", "repro.gametheory", "repro.analysis")

#: Everything below the sweep orchestrator: may never import repro.fleet
#: at module scope (the experiments CLI defers it into the handler).
_NO_FLEET_PREFIXES = (
    "repro.core",
    "repro.gametheory",
    "repro.network",
    "repro.payment",
    "repro.sim",
    "repro.obs",
    "repro.adversary",
    "repro.analysis",
    "repro.experiments",
)


def _under(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


@register
class ImportLayeringRule(Rule):
    """ARCH001: module-scope import that crosses the layering."""

    code = "ARCH001"
    name = "import-layering"
    rationale = (
        "Layering keeps the paper-facing model (core/gametheory) loadable "
        "without the harness or obs machinery, and keeps repro.sim.rng — "
        "the determinism root — free of anything stateful.  Violations "
        "are fixed by deferring the import into the function that needs "
        "it or behind typing.TYPE_CHECKING."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module = ctx.module
        if not (module == "repro" or module.startswith("repro.")):
            return
        for node, imported in _module_scope_imports(ctx):
            yield from self._check_one(ctx, node, imported)

    def _check_one(
        self, ctx: FileContext, node: ast.stmt, imported: str
    ) -> Iterator[Finding]:
        module = ctx.module
        if module == "repro.sim.rng":
            root = imported.split(".")[0]
            if root not in _RNG_ALLOWED_ROOTS:
                yield self.finding(
                    ctx,
                    node,
                    f"repro.sim.rng imports {imported}; the determinism "
                    "root must stay stateless (stdlib typing/math + numpy "
                    "only)",
                )
            return
        if imported == "repro.experiments" or imported.startswith("repro.experiments."):
            if _under(module, _NO_EXPERIMENTS_PREFIXES):
                yield self.finding(
                    ctx,
                    node,
                    f"{module} imports {imported} at module scope; only "
                    "the harness layer may depend on repro.experiments — "
                    "defer into the using function",
                )
        if imported == "repro.fleet" or imported.startswith("repro.fleet."):
            if _under(module, _NO_FLEET_PREFIXES):
                yield self.finding(
                    ctx,
                    node,
                    f"{module} imports {imported} at module scope; "
                    "repro.fleet is the top of the stack — nothing below "
                    "it may depend on the orchestrator (defer into the "
                    "using function)",
                )
        if imported == "repro.obs" or imported.startswith("repro.obs."):
            if _under(module, _NO_OBS_PREFIXES):
                yield self.finding(
                    ctx,
                    node,
                    f"{module} imports {imported} at module scope; "
                    "core/gametheory wire observability lazily (function-"
                    "level import or TYPE_CHECKING) so the model layer "
                    "loads without the obs machinery",
                )


def _module_scope_imports(ctx: FileContext) -> List[Tuple[ast.stmt, str]]:
    """(node, imported module) for every eager module-scope import.

    Recurses into plain ``if`` blocks at module scope (version guards)
    but skips ``if TYPE_CHECKING:`` bodies and ``try/except ImportError``
    fallbacks' handlers — both are established lazy/optional idioms.
    """
    out: List[Tuple[ast.stmt, str]] = []

    def visit(stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    out.append((stmt, alias.name))
            elif isinstance(stmt, ast.ImportFrom):
                base = _import_from_base(ctx, stmt)
                if base:
                    out.append((stmt, base))
            elif isinstance(stmt, ast.If):
                if not _is_type_checking_test(stmt.test):
                    visit(stmt.body)
                visit(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                visit(stmt.body)
                visit(stmt.orelse)
                visit(stmt.finalbody)

    visit(ctx.tree.body)
    return out


def _import_from_base(ctx: FileContext, node: ast.ImportFrom) -> Optional[str]:
    if not node.level:
        return node.module
    parts = ctx.module.split(".")
    pkg = parts[:-1]
    up = node.level - 1
    if up:
        pkg = pkg[: len(pkg) - up] if up <= len(pkg) else []
    base = ".".join(pkg)
    if node.module:
        base = f"{base}.{node.module}" if base else node.module
    return base or None


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False
