"""Property-based tests for the path-establishment protocol.

Random worlds (population size, degree, adversary fraction, termination
policy, strategy) -> the protocol's structural invariants must hold for
every path it produces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.history import HistoryProfile
from repro.core.path import PathFailure
from repro.core.protocol import ConnectionSeries, PathBuilder, TerminationPolicy
from repro.core.routing import strategy_by_name
from repro.network.overlay import Overlay


world_params = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "n": st.integers(min_value=6, max_value=30),
        "degree": st.integers(min_value=2, max_value=5),
        "f": st.sampled_from([0.0, 0.2, 0.5]),
        "strategy": st.sampled_from(["random", "utility-I", "utility-II"]),
        "crowds_pf": st.sampled_from([0.3, 0.6, 0.8]),
        "rounds": st.integers(min_value=1, max_value=8),
    }
)


def build_world(p):
    ov = Overlay(rng=np.random.default_rng(p["seed"]), degree=min(p["degree"], p["n"] - 1))
    ov.bootstrap(p["n"], malicious_fraction=p["f"])
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    builder = PathBuilder(
        overlay=ov,
        cost_model=CostModel(),
        histories=histories,
        rng=np.random.default_rng(p["seed"] + 1),
        good_strategy=strategy_by_name(p["strategy"]),
        termination=TerminationPolicy.crowds(p["crowds_pf"]),
    )
    return ov, builder


@settings(max_examples=40, deadline=None)
@given(world_params)
def test_paths_are_structurally_valid(p):
    ov, builder = build_world(p)
    initiator, responder = 0, p["n"] - 1
    series = ConnectionSeries(
        cid=1, initiator=initiator, responder=responder,
        contract=Contract.from_tau(75.0, 2.0), builder=builder,
    )
    log = series.run(p["rounds"])
    online = set(ov.online_ids())
    for path in log.paths:
        # Invariants: forwarders are online peers, responder never
        # forwards, length bounded, history matches hop records.
        assert path.forwarder_set <= online
        assert responder not in path.forwarder_set
        assert 1 <= path.length <= builder.max_path_length
        for pred, node, succ in path.hop_records():
            assert node != responder
            recs = builder.histories[node].records_for(1)
            assert any(
                r.round_index == path.round_index
                and r.predecessor == pred
                and r.successor == succ
                for r in recs
            )


@settings(max_examples=30, deadline=None)
@given(world_params)
def test_settlement_conservation_over_random_worlds(p):
    ov, builder = build_world(p)
    contract = Contract.from_tau(60.0, 1.0)
    series = ConnectionSeries(
        cid=1, initiator=0, responder=p["n"] - 1, contract=contract,
        builder=builder,
    )
    log = series.run(p["rounds"])
    payments = series.settlement()
    if not payments:
        assert log.rounds_completed == 0
        return
    total_instances = sum(log.total_instances().values())
    assert sum(payments.values()) == pytest.approx(
        total_instances * contract.forwarding_benefit + contract.routing_benefit
    )
    assert set(payments) == set(log.union_forwarder_set())


@settings(max_examples=30, deadline=None)
@given(world_params, st.integers(min_value=2, max_value=6))
def test_ttl_paths_have_exact_length_everywhere(p, ttl):
    ov, builder = build_world(p)
    builder.termination = TerminationPolicy.hop_ttl(ttl)
    try:
        path = builder.build_round(1, 1, 0, p["n"] - 1, Contract(50, 100))
    except PathFailure:
        return  # a dead-end world is allowed; just no malformed paths
    assert path.length == ttl
