"""Microbenchmarks for the edge-scoring hot path, on both backends.

These isolate the fast-path layers the end-to-end benchmark
(``benchmarks/e2e``) exercises whole: indexed selectivity on history-heavy profiles,
Model I edge scoring, and Model II backward induction (lookahead 2 and
3).  Each timed call builds a *fresh* ``ForwardingContext``, so the
numbers reflect a round's first decision rather than a warmed planner.
Three more track the large world's hot spots on a 5,000-node overlay:
the steady-state probe sweep, the same sweep after a topology change
(which scans every node's degree again), and a Model II lookahead-ball
decision.  One more times a cold paper-size Model II round: the round
table's build and the hop decisions that read it.

The decision benchmarks run once per scoring backend: ``python`` (the
scalar reference with its indexed selectivity, cached availability
normalisation and per-decision SPNE memo) and
``numpy`` (the batched kernels of :mod:`repro.core.kernels`).  The numpy
variants share one module-scoped :class:`WorldArrays` across contexts —
exactly how ``PathBuilder`` amortises it across rounds — so they measure
the steady state, not a CSR rebuild per decision.

They are diagnostics: CI runs them without gating, and what gates is
the end-to-end benchmark's same-runner parent/change comparison.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.edge_quality import QualityWeights
from repro.core.history import HistoryProfile
from repro.core.kernels import BACKENDS, WorldArrays
from repro.core.routing import ForwardingContext, UtilityModelI, UtilityModelII
from repro.network.overlay import Overlay
from repro.network.probing import fast_full_sweep

N_NODES = 60
DEGREE = 6
HISTORY_ROUNDS = 400  # history-heavy late-round regime
LATE_ROUND = HISTORY_ROUNDS + 1
#: The large world: ``overlay-5k-l3``'s population and degree.
LARGE_NODES = 5000
LARGE_DEGREE = 5
#: The paper's world: ``paper-l3``'s population and degree.
PAPER_NODES = 40
PAPER_DEGREE = 5


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(42)
    ov = Overlay(rng=rng, degree=DEGREE)
    ov.bootstrap(N_NODES)
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    for _, node in sorted(ov.nodes.items()):
        for _, view in sorted(node.neighbors.items()):
            view.session_time = float(rng.uniform(1.0, 120.0))
    for nid, h in histories.items():
        nbrs = ov.nodes[nid].neighbor_ids()
        for rnd in range(1, HISTORY_ROUNDS + 1):
            h.record(
                1,
                rnd,
                predecessor=int(rng.choice(list(ov.nodes))),
                successor=int(rng.choice(nbrs)),
            )
    return ov, histories


@pytest.fixture(scope="module")
def arrays(world):
    """One CSR world shared by every numpy-backend context."""
    ov, _ = world
    return WorldArrays(ov)


def fresh_context(
    ov,
    histories,
    backend="python",
    world_arrays=None,
    round_index=LATE_ROUND,
    kernel_crossover=False,
):
    # Crossover off by default: these benchmarks measure the kernels
    # themselves (degree 6 sits below the Model-I threshold, and the
    # point is to compare the lanes, not the dispatch heuristic).  The
    # degree-3 benchmark below turns it back on to measure dispatch.
    return ForwardingContext(
        cid=1,
        round_index=round_index,
        contract=Contract.from_tau(75.0, 2.0),
        responder=len(ov.nodes) - 1,
        overlay=ov,
        cost_model=CostModel(bandwidth=None, flat_unit_cost=1.0),
        histories=histories,
        rng=np.random.default_rng(1),
        weights=QualityWeights(),
        backend=backend,
        world=world_arrays,
        kernel_crossover=kernel_crossover,
    )


def test_perf_selectivity_history_heavy(benchmark, world):
    """O(log k) indexed selectivity on a profile holding 400 rounds."""
    ov, histories = world
    h = histories[0]
    succs = ov.nodes[0].neighbor_ids()

    def query_block():
        total = 0.0
        for succ in succs:
            for rnd in (LATE_ROUND, LATE_ROUND // 2, 2):
                total += h.selectivity(1, succ, rnd)
        return total

    assert benchmark(query_block) > 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_perf_model1_decision(benchmark, world, arrays, backend):
    ov, histories = world
    strat = UtilityModelI()
    node = ov.nodes[0]
    shared = arrays if backend == "numpy" else None

    def decide():
        return strat.select_next_hop(
            node, None, fresh_context(ov, histories, backend, shared)
        )

    assert benchmark(decide) in node.neighbors


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("lookahead", [2, 3])
def test_perf_model2_decision(benchmark, world, arrays, lookahead, backend):
    """Backward induction, cold per-context caches each call."""
    ov, histories = world
    strat = UtilityModelII(lookahead=lookahead)
    node = ov.nodes[0]
    shared = arrays if backend == "numpy" else None

    def decide():
        return strat.select_next_hop(
            node, None, fresh_context(ov, histories, backend, shared)
        )

    assert benchmark(decide) in node.neighbors


@pytest.mark.parametrize("backend", BACKENDS)
def test_perf_model1_decision_degree3_crossover(benchmark, backend):
    """The small-world regime the crossover heuristic exists for: a
    degree-3 neighbour set is far below ``MODEL1_KERNEL_MIN_CANDIDATES``,
    where per-decision numpy overhead (~3x) used to dominate.  With the
    heuristic on, the numpy lane dispatches these tiny decisions to the
    scalar path, so both bars here should be near-identical."""
    rng = np.random.default_rng(7)
    ov = Overlay(rng=rng, degree=3)
    ov.bootstrap(12)
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    for _, node in sorted(ov.nodes.items()):
        for _, view in sorted(node.neighbors.items()):
            view.session_time = float(rng.uniform(1.0, 120.0))
    for nid, h in histories.items():
        nbrs = ov.nodes[nid].neighbor_ids()
        for rnd in range(1, 40):
            h.record(
                1,
                rnd,
                predecessor=int(rng.choice(list(ov.nodes))),
                successor=int(rng.choice(nbrs)),
            )
    strat = UtilityModelI()
    node = ov.nodes[0]

    def decide():
        return strat.select_next_hop(
            node,
            None,
            fresh_context(
                ov, histories, backend, round_index=40, kernel_crossover=True
            ),
        )

    assert benchmark(decide) in node.neighbors


@pytest.mark.parametrize("backend", BACKENDS)
def test_perf_model2_decision_warm_round(benchmark, world, arrays, backend):
    """All hops of a round share one context: after the first decision the
    per-round caches (scored candidates, quality slices) serve the rest
    of the path."""
    ov, histories = world
    strat = UtilityModelII(lookahead=2)
    start = ov.nodes[0]
    shared = arrays if backend == "numpy" else None

    def route_three_hops():
        ctx = fresh_context(ov, histories, backend, shared)
        node, pred = start, None
        last = None
        for _ in range(3):
            nxt = strat.select_next_hop(node, pred, ctx)
            if nxt is None:
                break
            last = nxt
            node, pred = ov.nodes[nxt], node.node_id
        return last

    assert benchmark(route_three_hops) is not None


def test_perf_fast_sweep_5k(benchmark):
    """One steady-state probe period on 5,000 nodes with an array world
    listening: after the first call, the cached eligibility check, the
    sweep-log entry and the world's mirrored session-matrix add."""
    ov = Overlay(rng=np.random.default_rng(5), degree=LARGE_DEGREE)
    ov.bootstrap(LARGE_NODES)
    world = WorldArrays(ov)
    world.ensure_fresh()
    clock = iter(range(1, 10**9))

    def sweep():
        return fast_full_sweep(ov, 5.0, float(next(clock)))

    assert benchmark(sweep)["alive"] == LARGE_NODES * LARGE_DEGREE


def test_perf_fast_sweep_5k_after_topology_change(benchmark):
    """The same probe period when a neighbour set changed since the last
    one (untimed: one neighbour dropped and re-added), so the sweep pays
    for its O(N) eligibility scan."""
    ov = Overlay(rng=np.random.default_rng(5), degree=LARGE_DEGREE)
    ov.bootstrap(LARGE_NODES)
    world = WorldArrays(ov)
    world.ensure_fresh()
    clock = iter(range(1, 10**9))
    node = ov.nodes[0]
    nbr = node.neighbor_ids()[0]

    def rewire():
        node.remove_neighbor(nbr)
        node.add_neighbor(nbr)

    def sweep():
        return fast_full_sweep(ov, 5.0, float(next(clock)))

    swept = benchmark.pedantic(sweep, setup=rewire, rounds=200)
    assert swept["alive"] == LARGE_NODES * LARGE_DEGREE


def test_perf_model2_ball_decision_5k(benchmark):
    """The first Model II L3 decision of a round on 5,000 nodes, which
    sweeps (and scores) only its own lookahead ball.  Each call is the
    next round of one connection, over one planner, as in a scenario."""
    rng = np.random.default_rng(9)
    ov = Overlay(rng=rng, degree=LARGE_DEGREE)
    ov.bootstrap(LARGE_NODES)
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    for nid, h in histories.items():
        nbrs = ov.nodes[nid].neighbor_ids()
        for rnd in range(1, 9):
            h.record(1, rnd, predecessor=int(rng.integers(LARGE_NODES)),
                     successor=int(rng.choice(nbrs)))
    assert fast_full_sweep(ov, 5.0, 1.0) is not None
    base = fresh_context(ov, histories, "numpy", WorldArrays(ov), round_index=9)
    base.batch_planner()
    rounds = iter(range(9, 10**9))
    strat = UtilityModelII(lookahead=3)
    node = ov.nodes[0]

    def decide():
        ctx = dataclasses.replace(base, round_index=next(rounds))
        return strat.select_next_hop(node, None, ctx)

    assert benchmark(decide) in node.neighbors


def test_perf_model2_round_table_cold(benchmark):
    """One cold Model II L3 round on the paper's 40-node, degree-5
    overlay: the round table's build (quality row, validity, the level
    steps, path qualities) and the round's hop decisions, which read it.
    Each call is the next round of one connection over one planner, as
    in a scenario."""
    rng = np.random.default_rng(11)
    ov = Overlay(rng=rng, degree=PAPER_DEGREE)
    ov.bootstrap(PAPER_NODES)
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    for _, node in sorted(ov.nodes.items()):
        for _, view in sorted(node.neighbors.items()):
            view.session_time = float(rng.uniform(1.0, 120.0))
    for nid, h in histories.items():
        nbrs = ov.nodes[nid].neighbor_ids()
        for rnd in range(1, 9):
            h.record(1, rnd, predecessor=int(rng.integers(PAPER_NODES)),
                     successor=int(rng.choice(nbrs)))
    base = fresh_context(ov, histories, "numpy", WorldArrays(ov), round_index=9)
    base.batch_planner()
    rounds = iter(range(9, 10**9))
    strat = UtilityModelII(lookahead=3)
    start = ov.nodes[0]

    def route_round():
        ctx = dataclasses.replace(base, round_index=next(rounds))
        node, pred, hops = start, None, 0
        for _ in range(3):
            nxt = strat.select_next_hop(node, pred, ctx)
            if nxt is None:
                break
            hops += 1
            node, pred = ov.nodes[nxt], node.node_id
        return hops

    assert benchmark(route_round) == 3
