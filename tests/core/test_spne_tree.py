"""The lookahead ball as a positional tree.

``BatchPlanner._spne_ball`` lays level ``d - 1`` out as level ``d``'s
child slots, so it keeps duplicate states instead of deduplicating each
level, and it gathers every level's rows before one validity pass per
degree block.  These tests pin what that layout promises beyond the
equivalence suite (``test_spne_ball.py``): a level that would outgrow the
world's edge axis is still deduplicated, and a decision on a large
single-block world makes exactly one validity call and no ``np.unique``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import kernels
from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.edge_quality import QualityWeights
from repro.core.history import HistoryProfile
from repro.core.kernels import WorldArrays
from repro.core.routing import ForwardingContext, UtilityModelII
from repro.network.overlay import Overlay
from repro.network.topology import build_topology, install_topology
from repro.sim.monitoring import PERF


def _context(ov, histories, responder, round_index=7, position_aware=False, world=None):
    return ForwardingContext(
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
        world=world,
    )


def _histories(ov, rng, rounds=6):
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    for nid, h in histories.items():
        nbrs = ov.nodes[nid].neighbor_ids()
        for rnd in range(1, rounds + 1):
            if nbrs and rng.random() < 0.6:
                h.record(1, rnd, predecessor=int(rng.integers(len(ov.nodes))),
                         successor=int(rng.choice(nbrs)))
    return histories


def _tree_sizes(world, cand_idx, depth):
    """State count of each level of the ball without deduplication,
    level ``depth`` first, counted by multiplicity over the edge axis."""
    mult = np.zeros(world.n_edges, dtype=np.int64)
    np.add.at(mult, cand_idx, 1)
    sizes = [int(mult.sum())]
    for _ in range(depth - 1):
        below = np.zeros(world.n_edges, dtype=np.int64)
        for block in world.blocks:
            copies = mult[block.states]
            np.add.at(below, block.child.ravel(), np.repeat(copies, block.child.shape[1]))
        mult = below
        sizes.append(int(mult.sum()))
    return sizes


@pytest.mark.parametrize("position_aware", [False, True])
def test_level_beyond_the_edge_axis_is_deduplicated(monkeypatch, position_aware):
    rng = np.random.default_rng(21)
    n, degree, depth = 300, 6, 4
    ov = Overlay(rng=rng, degree=degree)
    ov.bootstrap(n)
    install_topology(ov, build_topology("scale-free", n=n, degree=degree, rng=rng))
    histories = _histories(ov, rng)
    for nid in rng.choice(np.arange(1, n), size=30, replace=False).tolist():
        ov.leave(nid, now=1.0)

    world = WorldArrays(ov)
    world.ensure_fresh()
    assert len(world.blocks) > 1
    # The root whose undeduplicated tree is largest.
    roots = [nid for nid, node in ov.nodes.items() if node.is_online and node.neighbors]
    sizes = {
        root: _tree_sizes(
            world, np.arange(world.indptr[root], world.indptr[root + 1]), depth
        )
        for root in roots
    }
    root = max(roots, key=lambda r: max(sizes[r]))
    assert max(sizes[root]) > world.n_edges

    ctx = _context(ov, histories, responder=0, position_aware=position_aware, world=world)
    planner = ctx.batch_planner()
    fr = planner._frontier(ctx)
    planner._ensure_liveness(fr, ctx)
    cand_idx, cand_ids = planner._candidates(fr, root, None)
    if position_aware:
        planner._ensure_q_child(fr, ctx)
    else:
        planner._ensure_full_rows(fr, ctx)

    level_sizes = []
    step = kernels.spne_level_step

    def recording_step(base, prev_sum, *args):
        level_sizes.append(prev_sum.size)
        return step(base, prev_sum, *args)

    monkeypatch.setattr(kernels, "spne_level_step", recording_step)
    tail_sum, tail_n = planner._spne_ball(fr, cand_idx, depth, position_aware)
    monkeypatch.undo()
    assert level_sizes and max(level_sizes) <= world.n_edges

    planner._ensure_levels(fr, ctx, depth, position_aware)
    assert np.array_equal(tail_sum, fr.levels_sum[depth][cand_idx])
    assert np.array_equal(tail_n, fr.levels_n[depth][cand_idx])
    strategy, memo = UtilityModelII(lookahead=depth), {}
    expected = [
        strategy._best_downstream(int(j), root, depth, ctx, memo) for j in cand_ids
    ]
    assert tail_sum.tolist() == [s for s, _ in expected]
    assert tail_n.tolist() == [k for _, k in expected]


def test_large_world_decision_makes_one_validity_call(monkeypatch):
    rng = np.random.default_rng(9)
    n = 5000
    ov = Overlay(rng=rng, degree=5)
    ov.bootstrap(n)
    histories = _histories(ov, rng, rounds=8)
    world = WorldArrays(ov)
    base = _context(ov, histories, responder=n - 1, round_index=9, world=world)
    base.batch_planner()
    strategy = UtilityModelII(lookahead=3)

    calls = {"validity": 0, "unique": 0}
    validity = kernels.spne_state_validity
    unique = np.unique

    def counting_validity(*args):
        calls["validity"] += 1
        return validity(*args)

    def counting_unique(*args, **kwargs):
        calls["unique"] += 1
        return unique(*args, **kwargs)

    monkeypatch.setattr(kernels, "spne_state_validity", counting_validity)
    monkeypatch.setattr(np, "unique", counting_unique)
    sweeps = PERF.spne_ball_sweeps
    decisions = 0
    for round_index, nid in enumerate(range(0, 400, 40), start=9):
        node = ov.nodes[nid]
        ctx = dataclasses.replace(base, round_index=round_index)
        assert strategy.select_next_hop(node, None, ctx) in node.neighbors
        decisions += 1
    monkeypatch.undo()
    assert len(world.blocks) == 1
    assert PERF.spne_ball_sweeps - sweeps == decisions
    assert calls == {"validity": decisions, "unique": 0}
