"""Differential tests for the routing fast path.

The per-decision SPNE memo is a pure optimisation: ``UtilityModelII``
must pick exactly the hop a memo-free backward induction picks.  Edge
quality is scored fresh on every call, from the live histories and probe
counters.  The reference implementations here recurse with no memo and
rescore every edge from the §2.3 definition.
"""

from typing import Optional

import numpy as np
import pytest

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.edge_quality import QualityWeights, edge_quality
from repro.core.history import HistoryProfile
from repro.core.routing import ForwardingContext, UtilityModelI, UtilityModelII
from repro.core.utility import forwarder_utility_model2
from repro.network.overlay import Overlay

RESPONDER_OFFSET = 1  # responder = n - 1 in the random worlds


def make_world(seed, n=14, degree=4, rounds_of_history=6):
    rng = np.random.default_rng(seed)
    ov = Overlay(rng=rng, degree=degree)
    ov.bootstrap(n)
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    # Random probe counters and some recorded history rounds.  Iteration
    # is sorted so the draw order feeding session times is reproducible
    # independently of dict insertion history (DET003).
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
    return ov, histories


def make_context(ov, histories, position_aware=False, round_index=7):
    return ForwardingContext(
        cid=1,
        round_index=round_index,
        contract=Contract.from_tau(60.0, 2.0),
        responder=len(ov.nodes) - RESPONDER_OFFSET,
        overlay=ov,
        cost_model=CostModel(bandwidth=None, flat_unit_cost=1.0),
        histories=histories,
        rng=np.random.default_rng(0),
        weights=QualityWeights(),
        position_aware_selectivity=position_aware,
    )


# ---- reference implementations (no memo, no caches) --------------------
def ref_edge_quality(context, node, nbr, predecessor):
    return edge_quality(
        node,
        nbr,
        context.histories[node.node_id],
        cid=context.cid,
        round_index=context.round_index,
        weights=context.weights,
        predecessor=context.selectivity_predecessor(predecessor),
        responder=context.responder,
    )


def ref_best_downstream(context, node_id, predecessor, depth):
    if depth == 0:
        return (0.0, 0)
    node = context.overlay.nodes[node_id]
    best_sum, best_n = 0.0, 0
    best_mean = -1.0
    for nbr in context.candidates(node, predecessor):
        q = ref_edge_quality(context, node, nbr, predecessor)
        tail_sum, tail_n = ref_best_downstream(context, nbr, node_id, depth - 1)
        total_sum, total_n = q + tail_sum, 1 + tail_n
        mean = total_sum / total_n
        if mean > best_mean:
            best_mean, best_sum, best_n = mean, total_sum, total_n
    return (best_sum, best_n)


def ref_select_next_hop(strategy, context, node, predecessor):
    scored = []
    for nbr in context.candidates(node, predecessor):
        q_first = ref_edge_quality(context, node, nbr, predecessor)
        tail_sum, tail_n = ref_best_downstream(
            context, nbr, node.node_id, strategy.lookahead
        )
        pq = (q_first + tail_sum + 1.0) / (1 + tail_n + 1)
        cost = context.cost_model.decision_cost(
            node.participation_cost, node.node_id, nbr, context.contract.payload_size
        )
        u = forwarder_utility_model2(context.contract, pq, cost)
        scored.append((u, pq, nbr))
    if not scored:
        return None
    best = max(scored, key=lambda t: (t[0], t[1], -t[2]))
    if best[0] < strategy.participation_threshold:
        return None
    return best[2]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("lookahead", [1, 2, 3])
@pytest.mark.parametrize("position_aware", [False, True])
def test_shared_memo_matches_pure_backward_induction(seed, lookahead, position_aware):
    ov, histories = make_world(seed)
    strat = UtilityModelII(lookahead=lookahead)
    for start in list(ov.nodes)[:6]:
        node = ov.nodes[start]
        for predecessor in (None, node.neighbor_ids()[0] if node.neighbors else None):
            ctx = make_context(ov, histories, position_aware=position_aware)
            ref_ctx = make_context(ov, histories, position_aware=position_aware)
            got = strat.select_next_hop(node, predecessor, ctx)
            expect = ref_select_next_hop(strat, ref_ctx, node, predecessor)
            assert got == expect, (seed, lookahead, start, predecessor)


@pytest.mark.parametrize("seed", range(6))
def test_path_quality_bitwise_equal_to_reference(seed):
    ov, histories = make_world(seed)
    strat = UtilityModelII(lookahead=2)
    ctx = make_context(ov, histories)
    node = ov.nodes[0]
    for nbr in ctx.candidates(node, None):
        pq = strat.path_quality_through(node, nbr, None, ctx)
        q_first = ref_edge_quality(ctx, node, nbr, None)
        tail_sum, tail_n = ref_best_downstream(ctx, nbr, node.node_id, 2)
        assert pq == (q_first + tail_sum + 1.0) / (1 + tail_n + 1)


@pytest.mark.parametrize("position_aware", [False, True])
def test_edge_quality_cache_is_exact(position_aware):
    """Edge quality is scored fresh: every call equals the §2.3 reference,
    and a probe credit between two calls of one round moves the score."""
    ov, histories = make_world(3)
    ctx = make_context(ov, histories, position_aware=position_aware)
    node = ov.nodes[0]
    pred = node.neighbor_ids()[0]
    for nbr in ctx.candidates(node, pred):
        first = ctx.edge_quality_for(node, nbr, pred)
        again = ctx.edge_quality_for(node, nbr, pred)
        assert first == again == ref_edge_quality(ctx, node, nbr, pred)
    nbr = ctx.candidates(node, pred)[0]
    before = ctx.edge_quality_for(node, nbr, pred)
    node.credit_session_time(nbr, 600.0)
    after = ctx.edge_quality_for(node, nbr, pred)
    assert after == ref_edge_quality(ctx, node, nbr, pred)
    assert after > before


def test_cache_keys_include_round_index():
    """Scoring reads the context's current round and the live history: a
    context whose round_index is mutated in place (the tier-1 routing
    tests do this) rescores against the new round's selectivity."""
    ov, histories = make_world(4)
    ctx = make_context(ov, histories, round_index=2)
    node = ov.nodes[0]
    nbr = ctx.candidates(node, None)[0]
    histories[0] = HistoryProfile(0)  # no history for the series yet
    q_before = ctx.edge_quality_for(node, nbr, None)
    histories[0].record(1, 2, predecessor=9, successor=nbr)
    ctx.round_index = 3
    q_after = ctx.edge_quality_for(node, nbr, None)
    # One matching record out of two possible rounds: sigma rose by w_s/2.
    assert q_after == pytest.approx(q_before + ctx.weights.selectivity * 0.5)


def test_model1_matches_cacheless_scoring():
    ov, histories = make_world(5)
    node = ov.nodes[0]
    ctx = make_context(ov, histories)
    choice = UtilityModelI().select_next_hop(node, None, ctx)
    # Reference: score through a fresh context each call and the raw
    # edge_quality function.
    best = None
    for nbr in make_context(ov, histories).candidates(node, None):
        fresh = make_context(ov, histories)
        q = ref_edge_quality(fresh, node, nbr, None)
        cost = fresh.cost_model.decision_cost(
            node.participation_cost, node.node_id, nbr, fresh.contract.payload_size
        )
        from repro.core.utility import forwarder_utility_model1

        u = forwarder_utility_model1(fresh.contract, q, cost)
        if best is None or (u, q, -nbr) > (best[0], best[1], -best[2]):
            best = (u, q, nbr)
    assert choice == best[2]


def test_spne_memo_counters_tick():
    from repro.sim.monitoring import PERF

    ov, histories = make_world(6)
    ctx = make_context(ov, histories)
    before = PERF.snapshot()
    UtilityModelII(lookahead=3).select_next_hop(ov.nodes[0], None, ctx)
    delta = PERF.delta_since(before)
    assert delta["spne_memo_misses"] > 0
    assert delta["spne_memo_hits"] > 0  # shared memo actually reused
    assert delta["edges_scored"] > 0
