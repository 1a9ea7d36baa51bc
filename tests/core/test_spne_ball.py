"""Demand-driven SPNE lookahead: the ball sweep vs the full-axis sweep.

``BatchPlanner._spne_ball`` runs Model II's backward induction over one
decision's lookahead ball only.  For the candidate states it must return
exactly the ``levels_sum``/``levels_n`` entries the full-axis sweep
(``_ensure_levels``) computes — bit for bit, whatever the liveness
pattern, predecessor or selectivity mode — and both must equal the
scalar specification's memo (``UtilityModelII._best_downstream``).  The
ball is called directly here, so worlds below the planner's dispatch
threshold qualify; the scenario tests at the bottom pin the dispatch
itself against the scalar specification.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.edge_quality import QualityWeights
from repro.core.history import HistoryProfile
from repro.core.routing import ForwardingContext, UtilityModelII
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.network.overlay import Overlay
from repro.network.topology import build_topology, install_topology


def _histories(ov, rng, rounds_of_history=6):
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    for _, node in sorted(ov.nodes.items()):
        for _, view in sorted(node.neighbors.items()):
            view.session_time = float(rng.uniform(0.0, 60.0))
    for nid, h in histories.items():
        nbrs = ov.nodes[nid].neighbor_ids()
        if not nbrs:
            continue
        for rnd in range(1, rounds_of_history + 1):
            if rng.random() < 0.6:
                h.record(
                    1,
                    rnd,
                    predecessor=int(rng.choice(list(ov.nodes))),
                    successor=int(rng.choice(nbrs)),
                )
    return histories


def _random_world(seed, n, degree, topology="bootstrap"):
    rng = np.random.default_rng(seed)
    ov = Overlay(rng=rng, degree=degree)
    ov.bootstrap(n)
    if topology != "bootstrap":
        install_topology(ov, build_topology(topology, n=n, degree=degree, rng=rng))
    return ov, _histories(ov, rng)


def _wired_world(edges, n, offline=()):
    """An overlay with the given out-neighbour lists (every other node
    has none) and the given nodes offline."""
    rng = np.random.default_rng(0)
    ov = Overlay(rng=rng, degree=2)
    ov.bootstrap(n)
    for nid, node in ov.nodes.items():
        node.set_neighbors(edges.get(nid, ()))
    histories = _histories(ov, rng)
    for nid in offline:
        ov.leave(nid, now=1.0)
    return ov, histories


def _ball_nodes(ov, root, depth):
    """Nodes reachable from ``root`` in 1..``depth`` overlay edges."""
    seen, frontier = set(), {root}
    for _ in range(depth):
        frontier = {j for i in frontier for j in ov.nodes[i].neighbor_ids()}
        seen |= frontier
    return sorted(seen - {root})


def ball_vs_full(ov, histories, root, predecessor, responder, depth, position_aware):
    """Run both sweeps for one decision, assert they agree exactly with
    each other and with the scalar memo, and return ``(tail_sum,
    tail_n)``."""
    ctx = ForwardingContext(
        cid=1,
        round_index=7,
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
    n_blocks = len(planner.world.blocks)
    planner._ensure_liveness(fr, ctx)
    cand_idx, cand_ids = planner._candidates(fr, root, predecessor)
    if position_aware:
        planner._ensure_q_child(fr, ctx)
    else:
        planner._ensure_full_rows(fr, ctx)
    tail_sum, tail_n = planner._spne_ball(fr, cand_idx, depth, position_aware)
    planner._ensure_levels(fr, ctx, depth, position_aware)
    assert np.array_equal(tail_sum, fr.levels_sum[depth][cand_idx])
    assert np.array_equal(tail_n, fr.levels_n[depth][cand_idx])
    strategy, memo = UtilityModelII(lookahead=depth), {}
    expected = [
        strategy._best_downstream(int(j), root, depth, ctx, memo) for j in cand_ids
    ]
    assert tail_sum.tolist() == [s for s, _ in expected]
    assert tail_n.tolist() == [n for _, n in expected]
    return tail_sum, tail_n, n_blocks


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=14, max_value=300),
    degree=st.integers(min_value=3, max_value=6),
    depth=st.integers(min_value=1, max_value=4),
    offline_share=st.floats(min_value=0.0, max_value=0.6),
    position_aware=st.booleans(),
    topology=st.sampled_from(["bootstrap", "scale-free"]),
    responder_pick=st.integers(min_value=0, max_value=1_000),
    predecessor_pick=st.integers(min_value=0, max_value=3),
)
# Multi-block: a scale-free world's hubs put its states in several
# degree blocks, so ball levels gather rows from more than one block.
@example(
    seed=7, n=120, degree=5, depth=3, offline_share=0.2, position_aware=False,
    topology="scale-free", responder_pick=5, predecessor_pick=1,
)
@example(
    seed=8, n=120, degree=5, depth=2, offline_share=0.3, position_aware=True,
    topology="scale-free", responder_pick=11, predecessor_pick=3,
)
def test_ball_matches_full_sweep(
    seed, n, degree, depth, offline_share, position_aware, topology,
    responder_pick, predecessor_pick,
):
    ov, histories = _random_world(seed, n, degree, topology)
    rng = np.random.default_rng(seed ^ 0x5EED)
    root = int(rng.integers(n))
    ball = _ball_nodes(ov, root, depth)
    responder = ball[responder_pick % len(ball)]
    others = [i for i in ov.nodes if i not in (root, responder)]
    n_off = int(offline_share * len(others))
    for nid in rng.choice(others, size=n_off, replace=False):
        ov.leave(int(nid), now=1.0)
    preds = [None] + ov.nodes[root].neighbor_ids()[:2] + [int(rng.integers(n))]
    predecessor = preds[predecessor_pick % len(preds)]
    _, _, n_blocks = ball_vs_full(
        ov, histories, root, predecessor, responder, depth, position_aware
    )
    if topology == "bootstrap":
        assert n_blocks == 1
    elif n >= 100:
        assert n_blocks > 1


@pytest.mark.parametrize("position_aware", [False, True])
def test_state_with_no_valid_child_scores_zero(position_aware):
    # 0 -> {1, 2}; 1's children are all offline, 2 has a live subtree.
    ov, histories = _wired_world(
        {0: [1, 2], 1: [3, 4], 2: [5], 5: [6], 6: [7]}, n=9, offline=(3, 4)
    )
    tail_sum, tail_n, _ = ball_vs_full(ov, histories, 0, None, 8, 3, position_aware)
    assert (tail_sum[0], tail_n[0]) == (0.0, 0)
    assert tail_n[1] == 3


@pytest.mark.parametrize("depth", [2, 4])
def test_root_with_dead_ball_has_empty_next_level(depth):
    # Both candidates lead only to an offline node: level depth-1 is empty.
    ov, histories = _wired_world({0: [1, 2], 1: [3], 2: [3], 3: [4]}, n=6, offline=(3,))
    tail_sum, tail_n, _ = ball_vs_full(ov, histories, 0, None, 5, depth, False)
    assert np.array_equal(tail_sum, np.zeros(2))
    assert np.array_equal(tail_n, np.zeros(2, dtype=np.int64))


@pytest.mark.parametrize("position_aware", [False, True])
def test_out_degree_zero_node_is_an_empty_segment(position_aware):
    # Nodes 1, 4 and 5 have no neighbours.  Node 1's state leads the
    # candidate level as an empty segment.  Ball level 2 is [2->3, 2->4]
    # and ball level 1 is [3->0, 3->5]: each ends in an empty segment
    # right after a state whose *last* child strictly wins (3->5 for
    # 2->3, 0->2 for 3->0).  3->5 is also the last edge of the whole
    # axis, so the full sweep has a trailing empty segment as well.
    ov, _ = _wired_world({0: [1, 2], 2: [3, 4], 3: [0, 5]}, n=7)
    # No history: q = w_a * alpha, and alpha follows the session times.
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    winners = {(0, 2), (2, 3), (3, 5)}
    for nid, node in ov.nodes.items():
        for j, view in node.neighbors.items():
            view.session_time = 99.0 if (nid, j) in winners else 1.0
    tail_sum, tail_n, _ = ball_vs_full(ov, histories, 0, None, 6, 3, position_aware)
    # 0->1 is dead; 0->2 continues 2->3 -> 3->5 (both 0.495), not 3->0.
    assert tail_n.tolist() == [0, 2]
    assert tail_sum[1] == pytest.approx(0.99)


# ---- dispatch through real scenarios -------------------------------------
def _digest(result):
    paths = tuple(
        (log.cid, tuple(tuple(p.nodes) for p in log.paths))
        for log in result.series_logs
    )
    return (
        paths,
        result.payoffs,
        result.earnings,
        result.series_settlements,
        result.degradation,
    )


def test_large_world_takes_the_ball_and_matches_scalar_spec():
    cfg = ExperimentConfig(
        seed=5,
        n_nodes=500,
        n_pairs=4,
        total_transmissions=40,
        strategy="utility-II",
        lookahead=3,
        use_bank=False,
    )
    scalar = run_scenario(cfg.with_overrides(backend="python"))
    batched = run_scenario(cfg.with_overrides(backend="numpy"))
    assert batched.perf_counters["spne_ball_sweeps"] > 0
    assert scalar.perf_counters["spne_ball_sweeps"] == 0
    assert _digest(batched) == _digest(scalar)


def test_paper_size_world_keeps_the_full_sweep():
    cfg = ExperimentConfig(
        seed=5,
        strategy="utility-II",
        lookahead=3,
        n_pairs=20,
        total_transmissions=200,
        use_bank=False,
        backend="numpy",
    )
    result = run_scenario(cfg)
    assert result.perf_counters["kernel_calls"] > 0
    assert result.perf_counters["spne_ball_sweeps"] == 0
