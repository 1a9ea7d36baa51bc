"""The round table's whole-block level path, bit for bit.

When one degree block holds every state (the paper's overlay: every
node has ``d`` out-neighbours), ``BatchPlanner`` steps the levels with
``_whole_block_step``: the base masked once per table (``-inf`` in
invalid slots), level 1 read from the base alone (``base + 0.0``, count
1), dead rows zeroed only when the validity pass found one, and no zero
fill or scatter.  Here every level of that path must equal, bit for bit,
the per-block path (``_block_level_step``: the kernel's ``-2.0``
sentinel, the gather from level 0, the scatter) over the same table and
the scalar specification's memo (``UtilityModelII._best_downstream``)
for every state — on random small worlds, with tied qualities, with
dead rows, and with a ``-0.0`` base that only the ``+ 0.0`` at level 1
turns into the ``0.0`` the other two give.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.edge_quality import QualityWeights
from repro.core.history import HistoryProfile
from repro.core.kernels import Frontier
from repro.core.routing import ForwardingContext, UtilityModelII
from repro.network.overlay import Overlay


def _world(seed, n, degree, offline_share, tied):
    """A bootstrap overlay (one whole degree block) with histories for
    cid 1.  ``tied``: equal session times and no history, so every edge
    of a node scores the same quality."""
    rng = np.random.default_rng(seed)
    ov = Overlay(rng=rng, degree=degree)
    ov.bootstrap(n)
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    for _, node in sorted(ov.nodes.items()):
        for _, view in sorted(node.neighbors.items()):
            view.session_time = 30.0 if tied else float(rng.uniform(0.0, 60.0))
    if not tied:
        for nid, profile in histories.items():
            nbrs = ov.nodes[nid].neighbor_ids()
            for rnd in range(1, 7):
                if rng.random() < 0.6:
                    profile.record(
                        1, rnd, predecessor=int(rng.choice(nbrs)),
                        successor=int(rng.choice(nbrs)),
                    )
    n_off = int(offline_share * (n - 1))
    for nid in rng.choice(np.arange(1, n), size=n_off, replace=False).tolist():
        ov.leave(nid, now=1.0)
    return ov, histories


def _table(ov, histories, responder, depth, position_aware, round_index=7):
    ctx = ForwardingContext(
        cid=1,
        round_index=round_index,
        contract=Contract.from_tau(60.0, 2.0),
        responder=responder,
        overlay=ov,
        cost_model=CostModel(bandwidth=None, flat_unit_cost=1.0),
        histories=histories,
        rng=np.random.default_rng(0),
        weights=QualityWeights(),
        backend="numpy",
        position_aware_selectivity=position_aware,
        kernel_crossover=False,
    )
    planner = ctx.batch_planner()
    fr = planner._frontier(ctx)
    planner._ensure_liveness(fr, ctx)
    if position_aware:
        planner._ensure_q_child(fr, ctx)
    else:
        planner._ensure_full_rows(fr, ctx)
    world = planner.world
    assert len(world.blocks) == 1 and world.blocks[0].states.size == world.n_edges
    return ctx, planner, fr


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _whole_vs_per_block(planner, fr, ctx, depth, position_aware):
    """Build the table's levels through the whole-block path, rebuild
    them through the per-block path, and assert equal bits at every
    level."""
    world = planner.world
    planner._ensure_levels(fr, ctx, depth, position_aware)
    ref = Frontier(fr.cid, fr.round_index, fr.responder, world)
    ref.st_valid, ref.st_dead = fr.st_valid, fr.st_dead
    ref.levels_sum = [np.zeros(world.n_edges)]
    ref.levels_n = [np.zeros(world.n_edges, dtype=np.int64)]
    bases = fr.q_child if position_aware else [fr.q_flat[b.child] for b in world.blocks]
    for _ in range(depth):
        new_sum, new_n = planner._block_level_step(ref, bases)
        ref.levels_sum.append(new_sum)
        ref.levels_n.append(new_n)
    for d in range(depth + 1):
        assert np.array_equal(_bits(fr.levels_sum[d]), _bits(ref.levels_sum[d])), d
        assert np.array_equal(fr.levels_n[d], ref.levels_n[d]), d


def _assert_scalar(planner, fr, ctx, depth):
    """Every state at every level equals the scalar memo's value."""
    world = planner.world
    strategy, memo = UtilityModelII(lookahead=depth), {}
    owners, heads = world.owner_flat.tolist(), world.nbr_flat.tolist()
    for d in range(1, depth + 1):
        expected = [
            strategy._best_downstream(v, u, d, ctx, memo)
            for u, v in zip(owners, heads)
        ]
        assert _bits(fr.levels_sum[d]).tolist() == _bits([s for s, _ in expected]).tolist()
        assert fr.levels_n[d].tolist() == [k for _, k in expected]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=8, max_value=60),
    degree=st.integers(min_value=2, max_value=6),
    depth=st.integers(min_value=1, max_value=4),
    offline_share=st.floats(min_value=0.0, max_value=0.7),
    tied=st.booleans(),
    position_aware=st.booleans(),
)
def test_whole_block_levels_match_per_block_and_scalar(
    seed, n, degree, depth, offline_share, tied, position_aware
):
    ov, histories = _world(seed, n, degree, offline_share, tied)
    ctx, planner, fr = _table(
        ov, histories, n - 1, depth, position_aware, round_index=1 if tied else 7
    )
    _whole_vs_per_block(planner, fr, ctx, depth, position_aware)
    _assert_scalar(planner, fr, ctx, depth)


@pytest.mark.parametrize("depth", [1, 3])
def test_dead_rows_read_zero(depth):
    """Node 0's children are all offline or the responder, so every state
    that arrives at node 0 is a dead row."""
    ov, histories = _world(3, 30, 4, 0.0, tied=False)
    kids = ov.nodes[0].neighbor_ids()
    responder = kids[0]
    for nid in kids[1:]:
        ov.leave(nid, now=1.0)
    ctx, planner, fr = _table(ov, histories, responder, depth, False)
    _whole_vs_per_block(planner, fr, ctx, depth, False)
    _assert_scalar(planner, fr, ctx, depth)
    dead = planner.world.nbr_flat == 0
    assert dead.any() and fr.st_dead[0] is not None and fr.st_dead[0][dead].all()
    assert not fr.levels_sum[depth][dead].any()
    assert not fr.levels_n[depth][dead].any()


def test_negative_zero_base_reads_zero_at_level_one():
    """Equal ``-0.0`` qualities tie everywhere; level 1 must hold the
    ``0.0`` that ``-0.0 + 0.0`` gives, as the per-block path's gather
    from the all-zero level 0 and the scalar ``q + 0.0`` do."""
    ov, histories = _world(5, 20, 5, 0.2, tied=True)
    ctx, planner, fr = _table(ov, histories, 19, 2, False)
    fr.q_flat[:] = -0.0
    _whole_vs_per_block(planner, fr, ctx, 2, False)
    live = fr.levels_n[1] > 0
    assert live.any()
    assert (_bits(fr.levels_sum[1]) == 0).all()
