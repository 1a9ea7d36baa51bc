"""Ball-local edge quality for lookahead-ball decisions.

A Model II decision that sweeps its own lookahead ball scores only the
edges it gathers (``BatchPlanner._ball_quality``) instead of building the
connection's full quality row.  The values must equal the full row's
``q_flat`` at those edges bit for bit — in round 1 (no history yet), in
later rounds, and when the selectivity hit row would over-count and the
full row is built instead.  On a large world the decision must then
score a small fraction of the edges and leave the full row unbuilt, and
the frontier's dense rows unallocated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.edge_quality import QualityWeights
from repro.core.history import HistoryProfile
from repro.core.kernels import WorldArrays
from repro.core.routing import ForwardingContext, UtilityModelI, UtilityModelII
from repro.network.overlay import Overlay
from repro.sim.monitoring import PERF

HISTORY_ROUNDS = 6


def _world(seed, n, degree):
    rng = np.random.default_rng(seed)
    ov = Overlay(rng=rng, degree=degree)
    ov.bootstrap(n)
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    for _, node in sorted(ov.nodes.items()):
        for _, view in sorted(node.neighbors.items()):
            view.session_time = float(rng.uniform(0.0, 60.0))
    for nid, h in histories.items():
        nbrs = ov.nodes[nid].neighbor_ids()
        for rnd in range(1, HISTORY_ROUNDS + 1):
            if rng.random() < 0.7:
                h.record(
                    1,
                    rnd,
                    predecessor=int(rng.choice(list(ov.nodes))),
                    successor=int(rng.choice(nbrs)),
                )
    return ov, histories


def _context(ov, histories, round_index, weights, backend="numpy", world=None):
    return ForwardingContext(
        cid=1,
        round_index=round_index,
        contract=Contract.from_tau(60.0, 2.0),
        responder=len(ov.nodes) - 1,
        overlay=ov,
        cost_model=CostModel(bandwidth=None, flat_unit_cost=1.0),
        histories=histories,
        rng=np.random.default_rng(0),
        weights=weights,
        backend=backend,
        world=world,
        kernel_crossover=False,
    )


def _table(ctx):
    """The planner's round table, which must be cid 1's."""
    table = ctx.batch_planner().table
    assert table is not None and table.cid == 1
    return table


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=8, max_value=120),
    degree=st.integers(min_value=2, max_value=6),
    round_index=st.sampled_from((1, 2, 4, HISTORY_ROUNDS, HISTORY_ROUNDS + 1, 30)),
    w_sel=st.sampled_from((0.0, 0.3, 0.5, 0.9, 1.0)),
    shape=st.sampled_from(((7,), (3, 4), (1,))),
)
def test_ball_quality_equals_the_full_row(seed, n, degree, round_index, w_sel, shape):
    ov, histories = _world(seed, n, degree)
    weights = QualityWeights(selectivity=w_sel, availability=1.0 - w_sel)
    ball_ctx = _context(ov, histories, round_index, weights)
    planner = ball_ctx.batch_planner()
    fr = planner._frontier(ball_ctx)
    edges = np.random.default_rng(seed).integers(planner.world.n_edges, size=shape)
    before = PERF.snapshot()
    got = planner._ball_quality(fr, ball_ctx)(edges)
    fallbacks = PERF.delta_since(before)["hit_row_fallbacks"]
    # Entries at or past the round make the hit row over-count: only
    # then is the full row built.
    assert (fallbacks > 0) == (round_index <= HISTORY_ROUNDS)
    assert fr.row_complete == (round_index <= HISTORY_ROUNDS)

    full_ctx = _context(ov, histories, round_index, weights)
    full_planner = full_ctx.batch_planner()
    full_fr = full_planner._frontier(full_ctx)
    full_planner._ensure_full_rows(full_fr, full_ctx)
    assert got.shape == shape
    np.testing.assert_array_equal(_bits(got), _bits(full_fr.q_flat[edges]))


def test_large_world_decision_scores_only_its_ball():
    ov, histories = _world(seed=3, n=2000, degree=5)
    strategy = UtilityModelII(lookahead=3)
    node = ov.nodes[17]
    world = WorldArrays(ov)
    ctx = _context(ov, histories, HISTORY_ROUNDS + 1, QualityWeights(), world=world)
    before = PERF.snapshot()
    choice = strategy.select_next_hop(node, None, ctx)
    delta = PERF.delta_since(before)
    assert delta["spne_ball_sweeps"] == 1
    assert not _table(ctx).row_complete
    assert 0 < delta["edges_scored"] < world.n_edges / 10
    scalar = _context(ov, histories, HISTORY_ROUNDS + 1, QualityWeights(), "python")
    assert choice == strategy.select_next_hop(node, None, scalar)


def test_ball_decisions_allocate_no_dense_rows():
    ov, histories = _world(seed=3, n=2000, degree=5)
    strategy = UtilityModelII(lookahead=3)
    ctx = _context(ov, histories, HISTORY_ROUNDS + 1, QualityWeights(), world=WorldArrays(ov))
    node, pred = ov.nodes[17], None
    for _ in range(3):
        nxt = strategy.select_next_hop(node, pred, ctx)
        assert nxt is not None
        node, pred = ov.nodes[nxt], node.node_id
    fr = _table(ctx)
    assert fr.q_flat is None
    assert fr.q_built is None


@pytest.mark.parametrize("strategy", [UtilityModelI(), UtilityModelII(lookahead=2)])
def test_small_world_decisions_still_fill_the_dense_rows(strategy):
    ov, histories = _world(seed=5, n=30, degree=4)
    world = WorldArrays(ov)
    ctx = _context(ov, histories, HISTORY_ROUNDS + 1, QualityWeights(), world=world)
    choice = strategy.select_next_hop(ov.nodes[2], None, ctx)
    fr = _table(ctx)
    assert fr.q_flat is not None and fr.q_flat.shape == (world.n_edges,)
    if isinstance(strategy, UtilityModelI):
        assert fr.q_built is not None and fr.q_built[2]
    else:
        assert fr.row_complete
    scalar = _context(ov, histories, HISTORY_ROUNDS + 1, QualityWeights(), "python")
    assert choice == strategy.select_next_hop(ov.nodes[2], None, scalar)


@pytest.mark.parametrize("round_index", [1, HISTORY_ROUNDS + 1])
def test_hops_of_one_round_match_the_scalar_spec(round_index):
    ov, histories = _world(seed=8, n=1500, degree=5)
    strategy = UtilityModelII(lookahead=3)
    world = WorldArrays(ov)
    paths = []
    for backend in ("numpy", "python"):
        ctx = _context(
            ov, histories, round_index, QualityWeights(), backend,
            world if backend == "numpy" else None,
        )
        node, pred, path = ov.nodes[0], None, []
        for _ in range(4):
            nxt = strategy.select_next_hop(node, pred, ctx)
            if nxt is None:
                break
            path.append(nxt)
            node, pred = ov.nodes[nxt], node.node_id
        paths.append(path)
    assert paths[0] == paths[1]
    assert paths[0]
