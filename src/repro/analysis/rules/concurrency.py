"""Concurrency / fork-safety rules CONC001-CONC002.

The sharded scenario engine fans world shards over a pool, the fleet
runner ships jobs to ``ProcessPoolExecutor`` workers, and
``run_replicates`` fans seeds over one.  The failure modes that matter
there are interprocedural and invisible to per-file rules:

- CONC001 — a callable submitted to a pool that does not survive the
  trip: lambdas and nested defs do not pickle, and a picklable function
  that *reaches* unpicklable ambient state (open file handles, live
  sockets, ``threading.local``, tracers) either crashes at submit time
  or, worse under fork, silently aliases live parent handles;
- CONC002 — a write to module-level mutable state reachable from a
  worker entry point: each worker mutates its own copy, the parent never
  sees it, and results silently depend on which process ran what.

Both rules are project-aware: they consult ``ctx.project``'s call graph
and symbol table, and degrade to a lexical check / no-op when a file is
linted alone.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.analysis.astutils import dotted_name, resolve_call_target
from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

#: Executor methods taking a callable first argument (lexical fallback;
#: the project resolver has its own richer matching).
_SUBMIT_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "apply_async", "starmap"}
)


def _project_for(ctx: FileContext):
    """The usable ProjectContext for ``ctx``, if any.

    ``None`` when linting a single file, or when this file is a
    duplicate-module scratch copy the project resolved to another path.
    """
    project = ctx.project
    if project is None:
        return None
    info = project.modules.get(ctx.module)
    if info is None or info.ctx is not ctx:
        return None
    return project


@register
class UnpicklableSubmissionRule(Rule):
    """CONC001: pool submission that cannot cross the process boundary."""

    code = "CONC001"
    name = "unpicklable-pool-submission"
    requires_project = True
    rationale = (
        "A ProcessPoolExecutor task is pickled in the parent and rebuilt "
        "in the worker: lambdas and nested defs fail outright, and a "
        "task that reaches module-level file handles, sockets, "
        "threading.local or live tracers either fails to pickle or — "
        "under the fork start method — silently shares parent OS state "
        "(file offsets, half-held locks) across processes.  Submit "
        "top-level functions whose transitive state is plain data; "
        "re-open handles inside the worker."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        project = _project_for(ctx)
        if project is not None:
            yield from self._check_project(ctx, project)
        else:
            yield from self._check_lexical(ctx)

    # -- project mode ------------------------------------------------------
    def _check_project(self, ctx: FileContext, project) -> Iterator[Finding]:
        for fn in project.functions_in(ctx.module):
            for sub in fn.submissions:
                yield from self._check_submission(ctx, project, sub)

    def _check_submission(self, ctx: FileContext, project, sub) -> Iterator[Finding]:
        if isinstance(sub.callable_node, ast.Lambda):
            yield self.finding(
                ctx,
                sub.callable_node,
                f"lambda submitted via {sub.via} cannot be pickled into a "
                "pool worker; submit a top-level function",
            )
            return
        for arg in sub.arg_nodes:
            if isinstance(arg, ast.Lambda):
                yield self.finding(
                    ctx,
                    arg,
                    f"lambda argument in {sub.via} submission cannot be "
                    "pickled into a pool worker; pass plain data or a "
                    "top-level function",
                )
        seen: Set[Tuple[str, str]] = set()
        for target in sub.targets:
            tf = project.functions.get(target)
            if tf is None:
                continue
            if tf.is_nested:
                yield self.finding(
                    ctx,
                    sub.callable_node,
                    f"nested function {target} submitted via {sub.via} "
                    "cannot be pickled into a pool worker; hoist it to "
                    "module level",
                )
                continue
            reach = project.reachable_from([target])
            for reached in sorted(reach):
                rf = project.functions[reached]
                mod_info = project.modules.get(rf.module)
                if mod_info is None:
                    continue
                for name in sorted(rf.loaded_names()):
                    hit = _hazard_global(project, mod_info, name)
                    if hit is None:
                        continue
                    mod, gname, lineno, kind = hit
                    key = (mod, gname)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.finding(
                        ctx,
                        sub.node,
                        f"callable {target} submitted via {sub.via} reaches "
                        f"unpicklable ambient state: {kind} "
                        f"{mod}.{gname} (defined line {lineno}, read "
                        f"in {reached}); workers must rebuild such state "
                        "locally",
                    )

    # -- lexical fallback --------------------------------------------------
    def _check_lexical(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SUBMIT_METHODS
                and node.args
            ):
                continue
            base = dotted_name(node.func.value) or ""
            last = base.split(".")[-1].lower()
            looks_like_pool = any(t in last for t in ("pool", "executor", "exec"))
            if not looks_like_pool and not _is_executor_ctor(node.func.value, ctx):
                continue
            if isinstance(node.args[0], ast.Lambda):
                yield self.finding(
                    ctx,
                    node.args[0],
                    f"lambda submitted via .{node.func.attr}() cannot be "
                    "pickled into a pool worker; submit a top-level "
                    "function",
                )


def _hazard_global(
    project, mod_info, name: str
) -> Optional[Tuple[str, str, int, str]]:
    """(module, name, lineno, kind) when ``name`` in ``mod_info``'s file
    denotes a fork-hazardous module-level object — defined there, or
    imported from another project module."""
    if name in mod_info.hazard_globals and name not in mod_info.ctx.imports:
        lineno, kind = mod_info.hazard_globals[name]
        return (mod_info.module, name, lineno, kind)
    target = mod_info.ctx.imports.get(name)
    if target and "." in target:
        mod, _, attr = target.rpartition(".")
        other = project.modules.get(mod)
        if other is not None and attr in other.hazard_globals:
            lineno, kind = other.hazard_globals[attr]
            return (mod, attr, lineno, kind)
    return None


def _is_executor_ctor(node: ast.AST, ctx: FileContext) -> bool:
    if not isinstance(node, ast.Call):
        return False
    target = resolve_call_target(node, ctx.imports)
    return target in (
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "multiprocessing.Pool",
    )


@register
class WorkerSharedStateRule(Rule):
    """CONC002: module-global mutation reachable from a worker entrypoint."""

    code = "CONC002"
    name = "worker-mutates-module-state"
    requires_project = True
    rationale = (
        "Pool workers are separate processes: a write to module-level "
        "mutable state (caches, registries, counters) from code a worker "
        "entry point can reach mutates the *worker's* copy only — the "
        "parent and sibling workers never observe it, so results depend "
        "on process scheduling.  Worker-reachable code must treat module "
        "globals as frozen configuration; mutable accumulation belongs "
        "in the job result (merged by the parent) or the durable store."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        project = _project_for(ctx)
        if project is None:
            return
        entrypoints = project.worker_entrypoints()
        if not entrypoints:
            return
        reach = project.reachable_from(entrypoints)
        for fn in project.functions_in(ctx.module):
            if fn.name == "<module>":
                continue
            witness = reach.get(fn.qualname)
            if witness is None:
                continue
            yield from self._check_fn(ctx, project, fn, witness)

    def _check_fn(self, ctx: FileContext, project, fn, witness: str) -> Iterator[Finding]:
        locals_, globals_decl = _scope_bindings(fn.node)
        # Walk fn's own scope only: nested defs are separate FunctionInfos.
        for node in _walk_own_scope_stmts(fn.node):
            yield from self._check_node(
                ctx, project, fn, witness, node, locals_, globals_decl
            )

    def _check_node(
        self,
        ctx: FileContext,
        project,
        fn,
        witness: str,
        node: ast.AST,
        locals_: Set[str],
        globals_decl: Set[str],
    ) -> Iterator[Finding]:
        # global NAME; NAME = ... / NAME += ...  (rebinding is lost per-worker
        # whatever the value's type).
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in globals_decl:
                    yield self.finding(
                        ctx,
                        node,
                        f"{fn.qualname} rebinds module global {target.id!r} "
                        f"and is reachable from worker entrypoint {witness}; "
                        "worker-side writes are per-process and silently "
                        "lost — return the value in the job result instead",
                    )
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    hit = self._mutable_global(
                        ctx, project, target.value.id, locals_
                    )
                    if hit is not None:
                        mod, name, lineno = hit
                        yield self.finding(
                            ctx,
                            node,
                            f"{fn.qualname} writes into module-level mutable "
                            f"state {mod}.{name} (defined line {lineno}) and "
                            f"is reachable from worker entrypoint {witness}; "
                            "per-process mutation diverges silently — "
                            "accumulate in the job result or the store",
                        )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            from repro.analysis.project import MUTATOR_METHODS

            if node.func.attr in MUTATOR_METHODS and isinstance(
                node.func.value, ast.Name
            ):
                hit = self._mutable_global(ctx, project, node.func.value.id, locals_)
                if hit is not None:
                    mod, name, lineno = hit
                    yield self.finding(
                        ctx,
                        node,
                        f"{fn.qualname} calls .{node.func.attr}() on "
                        f"module-level mutable state {mod}.{name} (defined "
                        f"line {lineno}) and is reachable from worker "
                        f"entrypoint {witness}; per-process mutation "
                        "diverges silently — accumulate in the job result "
                        "or the store",
                    )

    def _mutable_global(
        self, ctx: FileContext, project, name: str, locals_: Set[str]
    ) -> Optional[Tuple[str, str, int]]:
        """(module, name, def lineno) when ``name`` denotes module-level
        mutable state — defined here or imported from another module."""
        if name in locals_:
            return None
        info = project.modules.get(ctx.module)
        if info is not None and name in info.mutable_globals and name not in ctx.imports:
            lineno, _ctor = info.mutable_globals[name]
            return (ctx.module, name, lineno)
        target = ctx.imports.get(name)
        if target and "." in target:
            mod, _, attr = target.rpartition(".")
            other = project.modules.get(mod)
            if other is not None and attr in other.mutable_globals:
                lineno, _ctor = other.mutable_globals[attr]
                return (mod, attr, lineno)
        return None


def _walk_own_scope_stmts(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested scopes."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        yield from _walk_own_scope_stmts(child)


def _scope_bindings(func: ast.AST) -> Tuple[Set[str], Set[str]]:
    """(plain local names, names declared ``global``) in ``func``'s scope."""
    locals_: Set[str] = set()
    globals_decl: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            locals_.add(arg.arg)
    for node in _walk_own_scope_stmts(func):
        if isinstance(node, ast.Global):
            globals_decl.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    locals_.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                locals_.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    locals_.add(sub.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for sub in ast.walk(item.optional_vars):
                        if isinstance(sub, ast.Name):
                            locals_.add(sub.id)
    locals_ -= globals_decl
    return locals_, globals_decl
