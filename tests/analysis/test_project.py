"""Unit tests for the whole-program graph (``repro.analysis.project``).

These exercise :class:`ProjectContext` directly — symbol table, module
graph, call-edge resolution (direct, method-on-inferred-type, partial,
submissions), BFS reachability with witnesses and worker entry points —
without going through the lint pipeline.
"""

import textwrap
from pathlib import Path

from repro.analysis.context import FileContext
from repro.analysis.project import ProjectContext


def build_project(tmp_path: Path, sources):
    """Write ``{relpath: source}`` under ``tmp_path`` and build the graph."""
    contexts = []
    for rel, src in sources.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        src = textwrap.dedent(src)
        path.write_text(src)
        contexts.append(FileContext(path, src, display_path=rel))
    return ProjectContext(contexts)


TREE = {
    "repro/__init__.py": '"""pkg"""\n',
    "repro/util.py": """\
        def leaf():
            return 1


        def helper():
            return leaf()
        """,
    "repro/core/engine.py": """\
        import functools

        from repro.util import helper


        class Engine:
            def __init__(self):
                self.steps = 0

            def step(self):
                self.steps += 1
                return helper()


        def drive():
            eng = Engine()
            return eng.step()


        def deferred():
            return functools.partial(drive)
        """,
}


class TestSymbolsAndModuleGraph:
    def test_symbol_table_qualnames(self, tmp_path):
        project = build_project(tmp_path, TREE)
        for qual in (
            "repro.util.leaf",
            "repro.util.helper",
            "repro.core.engine.Engine.step",
            "repro.core.engine.drive",
            "repro.core.engine.<module>",
        ):
            assert qual in project.functions, qual
        assert "repro.core.engine.Engine" in project.classes

    def test_module_graph_edges(self, tmp_path):
        project = build_project(tmp_path, TREE)
        assert "repro.util" in project.module_imports["repro.core.engine"]

    def test_duplicate_module_first_wins(self, tmp_path):
        dup = dict(TREE)
        dup["copy/repro/util.py"] = "def impostor():\n    return 0\n"
        project = build_project(tmp_path, dup)
        # Sorted-module order ties on the name; only one survives, and the
        # graph never mixes symbols from both copies.
        assert ("repro.util.leaf" in project.functions) != (
            "repro.util.impostor" in project.functions
        )


class TestCallGraph:
    def test_direct_and_cross_module_edges(self, tmp_path):
        project = build_project(tmp_path, TREE)
        helper = project.functions["repro.util.helper"]
        assert "repro.util.leaf" in helper.calls

    def test_method_call_on_locally_constructed_instance(self, tmp_path):
        project = build_project(tmp_path, TREE)
        drive = project.functions["repro.core.engine.drive"]
        assert "repro.core.engine.Engine.step" in drive.calls

    def test_method_reaches_imported_function(self, tmp_path):
        project = build_project(tmp_path, TREE)
        step = project.functions["repro.core.engine.Engine.step"]
        assert "repro.util.helper" in step.calls

    def test_functools_partial_creates_edge(self, tmp_path):
        project = build_project(tmp_path, TREE)
        deferred = project.functions["repro.core.engine.deferred"]
        assert "repro.core.engine.drive" in deferred.calls

    def test_nested_sibling_closure_call_resolves(self, tmp_path):
        # pair_process-style shape: a nested function calling a sibling
        # defined in the enclosing scope (a closure reference, not a
        # local binding) must still produce a call edge — otherwise
        # reachability stops at the first nested hop.
        sources = {
            "repro/outer.py": """\
                def run():
                    def settle(x):
                        return x + 1

                    def worker(x):
                        return settle(x)

                    return worker(1)
                """
        }
        project = build_project(tmp_path, sources)
        worker = project.functions["repro.outer.run.worker"]
        assert "repro.outer.run.settle" in worker.calls
        reach = project.reachable_from(["repro.outer.run"])
        assert "repro.outer.run.settle" in reach

    def test_build_is_order_independent(self, tmp_path):
        forward = build_project(tmp_path / "a", TREE)
        backward_sources = dict(reversed(list(TREE.items())))
        backward = build_project(tmp_path / "b", backward_sources)
        graph = lambda p: {q: sorted(f.calls) for q, f in p.functions.items()}
        assert graph(forward) == graph(backward)


class TestReachability:
    def test_witness_is_the_seed_that_reaches(self, tmp_path):
        project = build_project(tmp_path, TREE)
        reach = project.reachable_from(["repro.core.engine.drive"])
        assert reach["repro.util.leaf"] == "repro.core.engine.drive"
        assert reach["repro.core.engine.drive"] == "repro.core.engine.drive"
        # deferred is not reachable *from* drive.
        assert "repro.core.engine.deferred" not in reach

    def test_unknown_seeds_are_ignored(self, tmp_path):
        project = build_project(tmp_path, TREE)
        assert project.reachable_from(["repro.nope.missing"]) == {}

    def test_worker_entrypoints_include_submitted_callables(self, tmp_path):
        sources = dict(TREE)
        sources["repro/runner.py"] = """\
            from concurrent.futures import ProcessPoolExecutor

            from repro.util import helper


            def launch(jobs):
                pool = ProcessPoolExecutor()
                return [pool.submit(helper, j) for j in jobs]
            """
        project = build_project(tmp_path, sources)
        assert "repro.util.helper" in project.worker_entrypoints()

    def test_run_jobs_callable_is_a_worker_entrypoint(self, tmp_path):
        # The pool call inside run_jobs maps a parameter, so the callable
        # is only visible where run_jobs is called.
        sources = dict(TREE)
        sources["repro/sweep.py"] = """\
            from functools import partial

            from repro.experiments.runner import run_jobs
            from repro.util import helper


            def launch(jobs):
                return run_jobs(partial(helper, 1), jobs, 2)
            """
        project = build_project(tmp_path, sources)
        assert "repro.util.helper" in project.worker_entrypoints()
        (sub,) = project.functions["repro.sweep.launch"].submissions
        assert sub.via == "run_jobs()"
