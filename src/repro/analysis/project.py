"""Whole-program view for project-aware lint rules.

One :class:`ProjectContext` is built per ``lint_paths`` run from every
parsed file.  It offers the three structures the interprocedural rules
need:

- a **module graph**: which project modules import which (module scope
  and deferred function-scope imports both count — an import is an
  import for reachability purposes);
- a **symbol table**: every top-level function, class, and method keyed
  by dotted qualname (``repro.core.protocol.PathBuilder.build_round``),
  plus per-module maps of module-level mutable state and fork-hazardous
  ambient objects (open file handles, sockets, locks);
- a conservative **call graph**: direct calls resolved through the
  per-file import alias maps, method calls on locally-inferred receiver
  types (``x = PathBuilder(...)`` / annotated parameters / ``self`` /
  ``self.attr`` set in any method), ``functools.partial`` unwrapping,
  and callables handed to executors (``pool.submit(fn, ...)``,
  ``pool.map(fn, ...)``, ``run_jobs(fn, ...)``,
  ``run_fleet(..., worker=fn)``) — each of these also feeds the
  worker-entrypoint set of the CONC rules.

Soundness posture: the graph *over*-approximates calls where the
receiver is known or the method name is distinctive, and deliberately
*drops* edges where name-matching would flood the graph (ubiquitous
method names such as ``get``/``items``/``append``, or a fallback with
more than :data:`MAX_NAME_FALLBACK` same-named candidates).  Rules built
on reachability therefore miss some exotic dispatch (documented in
docs/STATIC_ANALYSIS.md) but stay quiet enough to gate CI.  Everything
is computed from the ASTs already parsed for the per-file rules; no
code is imported or executed.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.astutils import dotted_name
from repro.analysis.context import FileContext

#: Simulation hot-path entry points for DET005 reachability.  These are
#: the functions whose transitive callees decide seed -> result; a
#: wall-clock read or global RNG draw anywhere below them taints the
#: reproduction claim even when it sits lexically outside the DET002
#: module scopes.
SIM_HOT_ENTRY_POINTS = frozenset(
    {
        "repro.experiments.scenario.run_scenario",
        "repro.core.protocol.PathBuilder.build_round",
        "repro.core.protocol.PathBuilder.build_round_with_retry",
        "repro.core.kernels.BatchPlanner.prepare",
        "repro.core.kernels.WorldArrays.ensure_fresh",
    }
)

#: Known pool-worker entry points for CONC002 (extended at build time
#: with every callable the project is seen submitting to an executor).
WORKER_ENTRY_POINTS = frozenset(
    {
        "repro.fleet.executor.execute_job",
        "repro.experiments.scenario.run_scenario",
        "repro.sim.shard.shard_worker_main",
    }
)

#: Executor methods that take a callable first argument.
_SUBMIT_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "apply_async", "starmap"}
)

#: Receiver names accepted as "an executor/pool" when no local type is
#: known (``pool.submit`` in a helper that received the pool as an arg).
_EXECUTORISH = ("pool", "executor", "exec")

#: Fully qualified executor constructors (locally-typed receivers).
_EXECUTOR_CLASSES = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)

#: Constructors whose results must never ride ambiently into a forked /
#: spawned pool worker: OS handles and synchronisation primitives do not
#: pickle, and under fork they alias live parent state (shared file
#: offsets, half-held locks).  ``kind`` strings are used in messages.
_UNPICKLABLE_CONSTRUCTORS: Mapping[str, str] = {
    "open": "open file handle",
    "socket.socket": "live socket",
    "socket.create_connection": "live socket",
    "threading.local": "threading.local",
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "condition variable",
    "threading.Event": "event",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
    "subprocess.Popen": "live subprocess handle",
    "repro.obs.events.RunTrace": "file-backed tracer",
    "repro.obs.tracing.SpanTracer": "tracer",
}

#: Constructors producing module-level *mutable* state tracked by
#: CONC002 (writes through these from worker-reachable code diverge
#: silently per process).
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
    }
)

#: Methods that mutate a list/set/dict receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "extendleft",
    }
)

#: Method names too ubiquitous for name-based fallback resolution: an
#: edge to *every* ``get`` in the project would connect everything to
#: everything and drown the reachability rules.
_FALLBACK_BLOCKLIST = frozenset(
    {
        "get",
        "items",
        "keys",
        "values",
        "append",
        "add",
        "update",
        "pop",
        "copy",
        "close",
        "read",
        "write",
        "sort",
        "index",
        "count",
        "join",
        "split",
        "strip",
        "format",
        "extend",
        "remove",
        "clear",
        "setdefault",
        "tolist",
        "item",
        "sum",
        "mean",
        "run",
    }
)

#: Name-fallback precision cutoff: a method name with more same-named
#: definitions than this resolves to nothing (documented imprecision)
#: rather than to everything.
MAX_NAME_FALLBACK = 6


class Submission:
    """One callable handed to an executor (or ``run_jobs``/``run_fleet``)."""

    __slots__ = ("node", "callable_node", "arg_nodes", "via", "targets")

    def __init__(
        self,
        node: ast.Call,
        callable_node: ast.expr,
        arg_nodes: List[ast.expr],
        via: str,
    ):
        self.node = node
        self.callable_node = callable_node
        #: Non-callable arguments shipped with the task (must pickle too).
        self.arg_nodes = arg_nodes
        #: How it was submitted: ``pool.submit``, ``run_jobs()``...
        self.via = via
        #: Resolved candidate qualnames of the callable (pass 2).
        self.targets: Tuple[str, ...] = ()


class FunctionInfo:
    """One function/method (or a module's top-level body) in the graph."""

    __slots__ = (
        "qualname",
        "module",
        "name",
        "node",
        "lineno",
        "class_name",
        "is_nested",
        "calls",
        "submissions",
        "_loaded_names",
    )

    def __init__(
        self,
        qualname: str,
        module: str,
        name: str,
        node: ast.AST,
        class_name: Optional[str],
        is_nested: bool,
    ):
        self.qualname = qualname
        self.module = module
        self.name = name
        self.node = node
        self.lineno = getattr(node, "lineno", 1)
        self.class_name = class_name
        self.is_nested = is_nested
        #: Resolved callee qualnames (pass 2), sorted and de-duplicated.
        self.calls: Tuple[str, ...] = ()
        self.submissions: List[Submission] = []
        self._loaded_names: Optional[FrozenSet[str]] = None

    def own_body(self) -> List[ast.stmt]:
        """Statements executed when this function runs (module body for
        the ``<module>`` pseudo-function)."""
        return list(getattr(self.node, "body", []))

    def loaded_names(self) -> FrozenSet[str]:
        """Plain names read anywhere in the body (nested scopes included
        — a closure captures them, which is exactly what matters for the
        fork-safety rules)."""
        if self._loaded_names is None:
            out: Set[str] = set()
            for stmt in self.own_body():
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        out.add(sub.id)
            self._loaded_names = frozenset(out)
        return self._loaded_names


class ClassInfo:
    """One class: its methods and locally-known attribute types."""

    __slots__ = ("qualname", "module", "name", "node", "methods", "attr_types")

    def __init__(self, qualname: str, module: str, name: str, node: ast.ClassDef):
        self.qualname = qualname
        self.module = module
        self.name = name
        self.node = node
        #: method name -> function qualname
        self.methods: Dict[str, str] = {}
        #: ``self.<attr>`` -> class qualname (from ``self.x = Cls(...)``).
        self.attr_types: Dict[str, str] = {}


class ModuleInfo:
    """Per-module symbol summary consumed by the CONC rules."""

    __slots__ = ("module", "ctx", "mutable_globals", "hazard_globals", "toplevel")

    def __init__(self, module: str, ctx: FileContext):
        self.module = module
        self.ctx = ctx
        #: name -> (lineno, constructor) for module-level dict/list/set state.
        self.mutable_globals: Dict[str, Tuple[int, str]] = {}
        #: name -> (lineno, kind) for fork-hazardous module-level objects.
        self.hazard_globals: Dict[str, Tuple[int, str]] = {}
        #: top-level def/class name -> qualname.
        self.toplevel: Dict[str, str] = {}


class ProjectContext:
    """The whole-program view handed to project-aware rules.

    Construction is two-pass: pass 1 walks every file collecting
    symbols, module summaries, and unresolved call sites; pass 2
    resolves call sites against the full symbol table into the call
    graph.  All iteration orders are sorted, so two builds over the same
    tree produce identical graphs (and identical findings) regardless of
    discovery order.
    """

    def __init__(self, contexts: Iterable[FileContext]):
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module -> project modules it imports (module graph).
        self.module_imports: Dict[str, Set[str]] = {}
        self._method_index: Dict[str, List[str]] = {}
        self._reach_cache: Dict[FrozenSet[str], Dict[str, str]] = {}
        self._worker_entrypoints: Optional[FrozenSet[str]] = None

        for ctx in sorted(contexts, key=lambda c: c.module):
            if ctx.module in self.modules:
                continue  # duplicate module name (scratch copies): first wins
            self._collect(ctx)
        self._resolve_all()

    # -- pass 1: symbol collection ---------------------------------------
    def _collect(self, ctx: FileContext) -> None:
        module = ctx.module
        info = ModuleInfo(module, ctx)
        self.modules[module] = info

        pseudo = FunctionInfo(
            f"{module}.<module>", module, "<module>", ctx.tree, None, False
        )
        self.functions[pseudo.qualname] = pseudo

        def walk(
            body: List[ast.stmt],
            prefix: str,
            class_info: Optional[ClassInfo],
            nested: bool,
        ) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{stmt.name}"
                    fn = FunctionInfo(
                        qual,
                        module,
                        stmt.name,
                        stmt,
                        class_info.name if class_info else None,
                        nested,
                    )
                    self.functions[qual] = fn
                    if class_info is not None and not nested:
                        class_info.methods[stmt.name] = qual
                        self._method_index.setdefault(stmt.name, []).append(qual)
                    elif not nested:
                        info.toplevel[stmt.name] = qual
                    walk(stmt.body, f"{qual}.", None, True)
                elif isinstance(stmt, ast.ClassDef):
                    qual = f"{prefix}{stmt.name}"
                    cls = ClassInfo(qual, module, stmt.name, stmt)
                    self.classes[qual] = cls
                    if class_info is None and not nested:
                        info.toplevel[stmt.name] = qual
                    walk(stmt.body, f"{qual}.", cls, nested)
                else:
                    # Nested compound statements can hide defs (e.g. a
                    # version-guarded class); recurse through them.
                    for block in _stmt_blocks(stmt):
                        walk(block, prefix, class_info, nested)

        walk(ctx.tree.body, f"{module}.", None, False)
        self._collect_module_globals(info)
        self._collect_attr_types(info)

    def _collect_module_globals(self, info: ModuleInfo) -> None:
        ctx = info.ctx
        for stmt in ctx.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            ctor = self._constructor_of(ctx, value)
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                      ast.ListComp, ast.SetComp)):
                    info.mutable_globals[target.id] = (stmt.lineno, "literal")
                elif ctor in _MUTABLE_CONSTRUCTORS:
                    info.mutable_globals[target.id] = (stmt.lineno, ctor)
                elif ctor in _UNPICKLABLE_CONSTRUCTORS:
                    info.hazard_globals[target.id] = (
                        stmt.lineno,
                        _UNPICKLABLE_CONSTRUCTORS[ctor],
                    )

    def _collect_attr_types(self, info: ModuleInfo) -> None:
        """``self.x = Cls(...)`` anywhere in a class body -> attr type."""
        for cls in self.classes.values():
            if cls.module != info.module:
                continue
            for sub in ast.walk(cls.node):
                if not (isinstance(sub, ast.Assign) and len(sub.targets) == 1):
                    continue
                target = sub.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                resolved = self._resolve_class_expr(info.ctx, sub.value)
                if resolved is not None:
                    cls.attr_types.setdefault(target.attr, resolved)

    def _constructor_of(self, ctx: FileContext, value: ast.expr) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        name = dotted_name(value.func)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        root = ctx.imports.get(head)
        return f"{root}.{rest}" if (root and rest) else (root or name)

    def _resolve_class_expr(self, ctx: FileContext, value: ast.expr) -> Optional[str]:
        """Class qualname when ``value`` is ``SomeProjectClass(...)``."""
        if not isinstance(value, ast.Call):
            return None
        return self._resolve_class_name(ctx, dotted_name(value.func))

    def _resolve_class_name(
        self, ctx: FileContext, name: Optional[str]
    ) -> Optional[str]:
        if name is None:
            return None
        for candidate in self._qualify(ctx, name):
            if candidate in self.classes:
                return candidate
        return None

    def _qualify(self, ctx: FileContext, name: str) -> List[str]:
        """Candidate qualnames for a dotted name used in ``ctx``."""
        head, _, rest = name.partition(".")
        out: List[str] = []
        resolved = ctx.imports.get(head)
        if resolved is not None:
            out.append(f"{resolved}.{rest}" if rest else resolved)
        out.append(f"{ctx.module}.{name}")  # same-module symbol
        out.append(name)  # already fully qualified
        return out

    def _module_edge(self, target: str) -> str:
        """The module a project import target lands in.

        ``from repro.util import helper`` records the target
        ``repro.util.helper``; the edge belongs to ``repro.util``.  Trim
        trailing symbol components until a collected module matches;
        unknown targets (files outside this run) keep their raw name.
        """
        mod = target
        while mod:
            if mod in self.modules:
                return mod
            if "." not in mod:
                break
            mod = mod.rpartition(".")[0]
        return target

    # -- pass 2: call resolution ------------------------------------------
    def _resolve_all(self) -> None:
        # The module graph needs the full module set, so it is an early
        # pass-2 step rather than part of per-file collection.
        for module, info in self.modules.items():
            self.module_imports[module] = {
                self._module_edge(target)
                for target in info.ctx.imports.values()
                if _project_module(target)
            }
        for qual in sorted(self.functions):
            fn = self.functions[qual]
            resolver = _CallResolver(self, fn)
            resolver.run()
            fn.calls = tuple(sorted(resolver.edges))
            fn.submissions = resolver.submissions

    # -- queries -----------------------------------------------------------
    def reachable_from(self, seeds: Iterable[str]) -> Dict[str, str]:
        """BFS closure over the call graph.

        Returns ``{reached qualname: witness seed}`` — the (sorted-order
        first) entry point that reaches each function, used in finding
        messages.  Seeds not present in the project are ignored.
        """
        key = frozenset(seeds)
        cached = self._reach_cache.get(key)
        if cached is not None:
            return cached
        witness: Dict[str, str] = {}
        frontier: List[str] = []
        for seed in sorted(key):
            if seed in self.functions and seed not in witness:
                witness[seed] = seed
                frontier.append(seed)
        while frontier:
            nxt: List[str] = []
            for qual in frontier:
                for callee in self.functions[qual].calls:
                    if callee not in witness:
                        witness[callee] = witness[qual]
                        nxt.append(callee)
            frontier = sorted(nxt)
        self._reach_cache[key] = witness
        return witness

    def worker_entrypoints(self) -> FrozenSet[str]:
        """Known worker entry points plus every submitted callable."""
        if self._worker_entrypoints is None:
            points: Set[str] = {
                q for q in WORKER_ENTRY_POINTS if q in self.functions
            }
            for fn in self.functions.values():
                for sub in fn.submissions:
                    points.update(t for t in sub.targets if t in self.functions)
            self._worker_entrypoints = frozenset(points)
        return self._worker_entrypoints

    def functions_in(self, module: str) -> List[FunctionInfo]:
        return sorted(
            (f for f in self.functions.values() if f.module == module),
            key=lambda f: (f.lineno, f.qualname),
        )

    def function_for_node(self, module: str, node: ast.AST) -> Optional[FunctionInfo]:
        for fn in self.functions.values():
            if fn.module == module and fn.node is node:
                return fn
        return None


class _CallResolver:
    """Resolves one function's call sites against the project symbols."""

    def __init__(self, project: ProjectContext, fn: FunctionInfo):
        self.project = project
        self.fn = fn
        self.ctx = project.modules[fn.module].ctx
        self.edges: Set[str] = set()
        self.submissions: List[Submission] = []
        #: local name -> class qualname (flow-insensitive).
        self.var_types: Dict[str, str] = {}
        #: local name -> hazard kind (``h = open(...)``).
        self.hazard_vars: Dict[str, str] = {}
        #: local names bound to a lambda / nested def.
        self.local_callables: Set[str] = set()
        #: local names bound to an executor instance.
        self.executor_vars: Set[str] = set()

    def run(self) -> None:
        if self.fn.class_name is not None:
            cls = self._own_class()
            if cls is not None:
                self.var_types["self"] = cls.qualname
        # Walk the function node itself: _walk_own_scope treats nested
        # defs as opaque children, so the <module> pseudo-function sees
        # only true module-level statements (not every function body).
        for node in _walk_own_scope(self.fn.node):
            self._collect_locals(node)
        self._collect_params()
        for node in _walk_own_scope(self.fn.node):
            if isinstance(node, ast.Call):
                self._resolve_call(node)

    def _own_class(self) -> Optional[ClassInfo]:
        qual = self.fn.qualname.rsplit(".", 1)[0]
        return self.project.classes.get(qual)

    # -- local type/hazard collection (flow-insensitive, own scope only) --
    def _collect_locals(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self._record_binding(target.id, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                self._record_binding(node.target.id, node.value)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    self._record_binding(item.optional_vars.id, item.context_expr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not self.fn.node:
                self.local_callables.add(node.name)

    def _collect_params(self) -> None:
        """Annotated parameters give receiver types for free."""
        args = getattr(self.fn.node, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if arg.annotation is not None:
                    resolved = self.project._resolve_class_name(
                        self.ctx, dotted_name(arg.annotation)
                    )
                    if resolved is not None:
                        self.var_types.setdefault(arg.arg, resolved)

    def _record_binding(self, name: str, value: ast.expr) -> None:
        if isinstance(value, ast.Lambda):
            self.local_callables.add(name)
            return
        cls = self.project._resolve_class_expr(self.ctx, value)
        if cls is not None:
            self.var_types.setdefault(name, cls)
            return
        ctor = self.project._constructor_of(self.ctx, value)
        if ctor in _UNPICKLABLE_CONSTRUCTORS:
            self.hazard_vars.setdefault(name, _UNPICKLABLE_CONSTRUCTORS[ctor])
        elif ctor in _EXECUTOR_CLASSES:
            self.executor_vars.add(name)

    # -- call-site resolution ---------------------------------------------
    def _resolve_call(self, call: ast.Call) -> None:
        ctor = self.project._constructor_of(self.ctx, call)
        if ctor == "functools.partial" and call.args:
            # partial(f, a, b): edge to f; the partial's bound args ride
            # into whatever consumes the partial (tracked at submit sites).
            self.edges.update(self._callable_targets(call.args[0]))
        submission = self._match_submission(call)
        if submission is not None:
            submission.targets = tuple(
                sorted(self._callable_targets(submission.callable_node))
            )
            self.edges.update(submission.targets)
            self.submissions.append(submission)
        self.edges.update(self._callee_targets(call))

    def _match_submission(self, call: ast.Call) -> Optional[Submission]:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS:
            if self._is_executor_receiver(func.value) and call.args:
                return Submission(
                    call,
                    call.args[0],
                    list(call.args[1:]) + [kw.value for kw in call.keywords],
                    f"{dotted_name(func) or func.attr}()",
                )
            return None
        name = dotted_name(func)
        if name is not None:
            qualified = self.project._qualify(self.ctx, name)
            # run_jobs(fn, items, n_jobs): the project's one pool
            if "repro.experiments.runner.run_jobs" in qualified and call.args:
                return Submission(
                    call, call.args[0], list(call.args[1:]), "run_jobs()"
                )
            # run_fleet(spec, store, worker=fn)
            if any(
                q in ("repro.fleet.executor.run_fleet", "repro.fleet.run_fleet")
                for q in qualified
            ):
                for kw in call.keywords:
                    if kw.arg == "worker":
                        return Submission(call, kw.value, [], "run_fleet(worker=)")
        return None

    def _is_executor_receiver(self, receiver: ast.expr) -> bool:
        if isinstance(receiver, ast.Name) and receiver.id in self.executor_vars:
            return True
        # Immediate use: ProcessPoolExecutor().submit / with-less chains.
        ctor = (
            self.project._constructor_of(self.ctx, receiver)
            if isinstance(receiver, ast.Call)
            else None
        )
        if ctor in _EXECUTOR_CLASSES:
            return True
        base = dotted_name(receiver)
        last = (base or "").split(".")[-1].lower()
        return any(tag in last for tag in _EXECUTORISH)

    def _callable_targets(self, expr: ast.expr) -> Set[str]:
        """Project functions a callable-valued expression may denote."""
        if isinstance(expr, ast.Call):
            ctor = self.project._constructor_of(self.ctx, expr)
            if ctor == "functools.partial" and expr.args:
                return self._callable_targets(expr.args[0])
            return set()
        name = dotted_name(expr)
        if name is None:
            return set()
        out: Set[str] = set()
        # self.method / obj.method references (unparenthesised callables).
        if isinstance(expr, ast.Attribute):
            recv = expr.value
            recv_name = dotted_name(recv)
            if recv_name is not None and recv_name in self.var_types:
                method = self._class_method(self.var_types[recv_name], expr.attr)
                if method is not None:
                    return {method}
        for candidate in self.project._qualify(self.ctx, name):
            if candidate in self.project.functions:
                out.add(candidate)
            elif candidate in self.project.classes:
                init = self.project.classes[candidate].methods.get("__init__")
                if init is not None:
                    out.add(init)
        if not out and name in self.local_callables:
            # Bound to a lambda / nested def in this scope; the nested
            # def's own qualname (if any) is the edge.
            nested = f"{self.fn.qualname}.{name}"
            if nested in self.project.functions:
                out.add(nested)
        return out

    def _callee_targets(self, call: ast.Call) -> Set[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_plain(func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_method(func)
        return set()

    def _resolve_plain(self, name: str) -> Set[str]:
        if name in self.local_callables:
            nested = f"{self.fn.qualname}.{name}"
            if nested in self.project.functions:
                return {nested}
            return set()
        # Closure reference: a nested function calling a sibling defined
        # in an enclosing function's scope (qualname ancestry walk).
        if self.fn.is_nested:
            prefix = self.fn.qualname
            while "." in prefix:
                prefix = prefix.rpartition(".")[0]
                enclosing = f"{prefix}.{name}"
                if enclosing in self.project.functions:
                    return {enclosing}
                if prefix == self.fn.module:
                    break
        out: Set[str] = set()
        for candidate in self.project._qualify(self.ctx, name):
            if candidate in self.project.functions:
                out.add(candidate)
                break
            if candidate in self.project.classes:
                init = self.project.classes[candidate].methods.get("__init__")
                if init is not None:
                    out.add(init)
                break
        return out

    def _resolve_method(self, func: ast.Attribute) -> Set[str]:
        # Fully dotted: mod.sub.fn(...) through the import map.
        name = dotted_name(func)
        if name is not None:
            for candidate in self.project._qualify(self.ctx, name):
                if candidate in self.project.functions:
                    return {candidate}
                if candidate in self.project.classes:
                    init = self.project.classes[candidate].methods.get("__init__")
                    return {init} if init else set()
        # Typed receiver: self.m(), obj.m(), self.attr.m().
        recv = func.value
        recv_name = dotted_name(recv)
        if recv_name is not None:
            cls_qual = self.var_types.get(recv_name)
            if cls_qual is None and "." in recv_name:
                head, _, attr_chain = recv_name.partition(".")
                base_cls = self.var_types.get(head)
                if base_cls is not None and "." not in attr_chain:
                    cls_info = self.project.classes.get(base_cls)
                    if cls_info is not None:
                        cls_qual = cls_info.attr_types.get(attr_chain)
            if cls_qual is not None:
                method = self._class_method(cls_qual, func.attr)
                if method is not None:
                    return {method}
                return set()  # known type, unknown method: likely stdlib
        # Name fallback (CHA): every project method with this name, if
        # the name is distinctive enough to keep the graph useful.
        if func.attr in _FALLBACK_BLOCKLIST or func.attr.startswith("__"):
            return set()
        candidates = self.project._method_index.get(func.attr, [])
        if 0 < len(candidates) <= MAX_NAME_FALLBACK:
            return set(candidates)
        return set()

    def _class_method(self, cls_qual: str, method: str) -> Optional[str]:
        cls = self.project.classes.get(cls_qual)
        if cls is None:
            return None
        return cls.methods.get(method)


# -- helpers ---------------------------------------------------------------
def _walk_own_scope(node: ast.AST) -> Iterable[ast.AST]:
    """Walk without descending into nested function/class scopes.

    The root node itself is yielded even when it is a def (so a visitor
    starting *at* a function sees its body, but not its nested defs').
    """
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            yield child  # visible as a statement/expr, not descended into
            continue
        yield from _walk_own_scope(child)


def _stmt_blocks(stmt: ast.stmt) -> List[List[ast.stmt]]:
    blocks: List[List[ast.stmt]] = []
    for field in ("body", "orelse", "finalbody"):
        block = getattr(stmt, field, None)
        if block and isinstance(block[0], ast.stmt):
            blocks.append(block)
    for handler in getattr(stmt, "handlers", []) or []:
        blocks.append(handler.body)
    for case in getattr(stmt, "cases", []) or []:
        blocks.append(case.body)
    return blocks


def _project_module(target: str) -> str:
    """The project module an import target belongs to ('' if external)."""
    if target == "repro" or target.startswith("repro."):
        return target
    return ""
