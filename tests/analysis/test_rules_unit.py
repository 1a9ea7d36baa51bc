"""Focused unit tests for individual rule heuristics on inline snippets."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import FileContext, all_rules
from repro.analysis.registry import select_rules


def run_rule(code, source, module_path="repro/core/snippet.py"):
    ctx = FileContext(Path(module_path), textwrap.dedent(source))
    (rule,) = select_rules([code])
    return list(rule.check(ctx))


def codes_and_lines(findings):
    return [(f.code, f.line) for f in sorted(findings)]


class TestRegistry:
    def test_expected_rule_set(self):
        assert [rule.code for rule in all_rules()] == [
            "ARCH001",
            "CONC001",
            "CONC002",
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "DET005",
            "PERF002",
            "PERF003",
        ]

    def test_duplicate_code_rejected(self):
        from repro.analysis.registry import Rule, register

        with pytest.raises(ValueError, match="duplicate"):

            @register
            class Clone(Rule):  # pragma: no cover - registration fails
                code = "DET001"
                name = "clone"

                def check(self, ctx):
                    return iter(())

    def test_rules_document_their_rationale(self):
        from repro.analysis import all_rules

        for rule in all_rules():
            assert len(rule.rationale) > 40, f"{rule.code} lacks a rationale"


class TestDet001:
    def test_rng_module_itself_is_exempt(self):
        src = "import numpy as np\ngen = np.random.default_rng()\n"
        assert run_rule("DET001", src, "repro/sim/rng.py") == []
        assert len(run_rule("DET001", src, "repro/sim/other.py")) == 1

    def test_import_alias_resolution(self):
        src = """
        from numpy.random import default_rng as mk
        g = mk()
        """
        (f,) = run_rule("DET001", src)
        assert "unseeded" in f.message

    def test_seed_argument_as_keyword_is_ok(self):
        src = """
        import numpy as np
        g = np.random.default_rng(seed=3)
        """
        assert run_rule("DET001", src) == []


class TestDet002:
    def test_only_sim_scopes_are_checked(self):
        src = "import time\nt = time.time()\n"
        assert len(run_rule("DET002", src, "repro/payment/bank.py")) == 1
        assert len(run_rule("DET002", src, "repro/gametheory/normal_form.py")) == 1
        # The obs layer and the harness own wall-clock measurement.
        assert run_rule("DET002", src, "repro/obs/tracing.py") == []
        assert run_rule("DET002", src, "repro/experiments/suite.py") == []
        assert run_rule("DET002", src, "tests/sim/test_x.py") == []


class TestDet003:
    def test_set_union_operator_on_tracked_locals(self):
        src = """
        def f(rng, a, b):
            xs = set(a)
            ys = set(b)
            return rng.choice(list(xs | ys))
        """
        assert len(run_rule("DET003", src)) == 1

    def test_set_method_result_is_tracked(self):
        src = """
        def f(rng, a, b):
            xs = set(a)
            return rng.choice(list(xs.union(b)))
        """
        assert len(run_rule("DET003", src)) == 1

    def test_sorted_wrapper_exonerates(self):
        src = """
        def f(rng, a):
            return rng.choice(sorted(set(a)))
        """
        assert run_rule("DET003", src) == []

    def test_module_level_draw_is_checked(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.choice(list({1, 2}))\n"
        assert len(run_rule("DET003", src)) == 1


class TestDet004:
    def test_try_block_draw_after_emit(self):
        src = """
        def f(bus, rng):
            try:
                bus.emit("start")
                x = rng.random()
            finally:
                pass
            return x
        """
        assert len(run_rule("DET004", src)) == 1

    def test_emit_in_loop_before_later_draw_in_same_iteration(self):
        src = """
        def f(bus, rng, n):
            for i in range(n):
                bus.emit("pre", i=i)
                x = rng.random()
        """
        assert len(run_rule("DET004", src)) == 1

    def test_nested_function_does_not_leak_into_parent(self):
        src = """
        def f(bus, rng):
            def on_event(e):
                bus.emit("hop", e=e)
            x = rng.random()
            return on_event, x
        """
        assert run_rule("DET004", src) == []

    def test_non_bus_emit_ignored(self):
        src = """
        def f(emitter, rng):
            emitter.emit("particle")
            return rng.random()
        """
        assert run_rule("DET004", src) == []


class TestPerf002:
    def test_tolist_untaints_and_inline_conversion_is_ok(self):
        src = """
        import numpy as np

        def f(values):
            arr = np.asarray(values)
            native = arr.tolist()
            total = 0.0
            for v in native:
                total += v
            for v in arr.tolist():
                total += v
            return total
        """
        assert run_rule("PERF002", src) == []

    def test_subscript_with_loop_index_flagged(self):
        src = """
        import numpy as np

        def f(n):
            arr = np.zeros(n)
            out = 0.0
            for i in range(n):
                out += arr[i]
            return out
        """
        (f,) = run_rule("PERF002", src)
        assert "arr[i]" in f.message

    def test_scoped_to_core_and_network_layers(self):
        src = """
        import numpy as np

        def f(n):
            for x in np.arange(n):
                pass
        """
        assert len(run_rule("PERF002", src, "repro/core/x.py")) == 1
        assert len(run_rule("PERF002", src, "repro/network/x.py")) == 1
        assert run_rule("PERF002", src, "repro/experiments/x.py") == []
        assert run_rule("PERF002", src, "repro/sim/x.py") == []

    def test_subscript_outside_loop_not_flagged(self):
        src = """
        import numpy as np

        def f(n, i):
            arr = np.zeros(n)
            return arr[i]
        """
        assert run_rule("PERF002", src) == []

    def test_nested_function_does_not_inherit_loop_vars(self):
        src = """
        import numpy as np

        def f(n):
            arr = np.zeros(n)
            for i in range(n):
                def peek():
                    return arr[i]
            return peek
        """
        assert run_rule("PERF002", src) == []


class TestPerf003:
    def test_world_construction_in_for_loop_flagged(self):
        src = """
        from repro.core.kernels import WorldArrays

        def f(overlay, rounds):
            for _ in range(rounds):
                world = WorldArrays(overlay)
        """
        (f,) = run_rule("PERF003", src)
        assert "WorldArrays" in f.message

    def test_planner_construction_in_while_loop_flagged(self):
        src = """
        from repro.core.kernels import BatchPlanner

        def f(world, n):
            i = 0
            while i < n:
                planner = BatchPlanner(world)
                i += 1
        """
        assert len(run_rule("PERF003", src)) == 1

    def test_module_alias_resolution(self):
        src = """
        import repro.core.kernels as kernels

        def f(overlay, items):
            return [kernels.WorldArrays(overlay) for _ in items]
        """
        # Comprehensions are not loop bodies for this rule — but an
        # explicit loop through the alias is.
        src_loop = """
        import repro.core.kernels as kernels

        def f(overlay, items):
            out = []
            for _ in items:
                out.append(kernels.WorldArrays(overlay))
            return out
        """
        assert run_rule("PERF003", src) == []
        assert len(run_rule("PERF003", src_loop)) == 1

    def test_construction_outside_loop_not_flagged(self):
        src = """
        from repro.core.kernels import BatchPlanner, WorldArrays

        def f(overlay, rounds):
            world = WorldArrays(overlay)
            planner = BatchPlanner(world)
            for _ in range(rounds):
                world.ensure_fresh()
        """
        assert run_rule("PERF003", src) == []

    def test_scoped_to_core_and_network_layers(self):
        src = """
        from repro.core.kernels import WorldArrays

        def f(overlay, rounds):
            for _ in range(rounds):
                world = WorldArrays(overlay)
        """
        assert len(run_rule("PERF003", src, "repro/core/x.py")) == 1
        assert len(run_rule("PERF003", src, "repro/network/x.py")) == 1
        assert run_rule("PERF003", src, "repro/experiments/x.py") == []
        assert run_rule("PERF003", src, "tests/core/x.py") == []

    def test_nested_function_resets_loop_state(self):
        src = """
        from repro.core.kernels import WorldArrays

        def f(overlay, rounds):
            for _ in range(rounds):
                def make():
                    return WorldArrays(overlay)
        """
        assert run_rule("PERF003", src) == []


class TestArch001:
    def test_try_import_fallback_body_is_checked(self):
        src = """
        try:
            from repro.obs.events import EventBus
        except ImportError:
            EventBus = None
        """
        assert len(run_rule("ARCH001", src)) == 1

    def test_relative_import_resolution(self):
        # ``from ..obs import events`` inside repro/core/x.py -> repro.obs
        src = "from ..obs import events\n"
        assert len(run_rule("ARCH001", src, "repro/core/x.py")) == 1

    def test_network_may_import_obs(self):
        src = "from repro.obs.events import EventBus\n"
        assert run_rule("ARCH001", src, "repro/network/churn.py") == []

    def test_nobody_below_harness_imports_experiments(self):
        src = "from repro.experiments.config import ExperimentConfig\n"
        assert len(run_rule("ARCH001", src, "repro/network/churn.py")) == 1
        assert len(run_rule("ARCH001", src, "repro/obs/events.py")) == 1
        assert run_rule("ARCH001", src, "repro/experiments/runner.py") == []

    def test_fleet_may_import_harness_and_obs(self):
        src = (
            "from repro.experiments.config import ExperimentConfig\n"
            "from repro.obs import MetricsRegistry\n"
        )
        assert run_rule("ARCH001", src, "repro/fleet/spec.py") == []

    def test_nobody_below_fleet_imports_fleet(self):
        src = "from repro.fleet.store import FleetStore\n"
        for path in (
            "repro/core/routing.py",
            "repro/gametheory/equilibrium.py",
            "repro/obs/events.py",
            "repro/experiments/cli.py",
        ):
            findings = run_rule("ARCH001", src, path)
            assert len(findings) == 1, path
            assert "repro.fleet" in findings[0].message

    def test_fleet_internal_imports_allowed(self):
        src = "from repro.fleet.spec import FleetJob\n"
        assert run_rule("ARCH001", src, "repro/fleet/executor.py") == []

    def test_lazy_fleet_import_in_handler_allowed(self):
        src = """
        def handler(args):
            from repro.fleet.cli import run
            return run(args)
        """
        assert run_rule("ARCH001", src, "repro/experiments/cli.py") == []
