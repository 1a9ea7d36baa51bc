"""Tests for path establishment: termination, builder, series."""

import numpy as np
import pytest

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.history import HistoryProfile
from repro.core.path import PathFailure
from repro.core.protocol import (
    ConnectionSeries,
    PathBuilder,
    TerminationPolicy,
)
from repro.core.routing import RandomRouting, UtilityModelI
from repro.network.overlay import Overlay


def make_builder(ov, seed=1, strategy=None, termination=None, **kwargs):
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    return PathBuilder(
        overlay=ov,
        cost_model=CostModel(bandwidth=None, flat_unit_cost=1.0),
        histories=histories,
        rng=np.random.default_rng(seed),
        good_strategy=strategy or UtilityModelI(),
        termination=termination or TerminationPolicy.crowds(0.6),
        **kwargs,
    )


@pytest.fixture
def overlay():
    ov = Overlay(rng=np.random.default_rng(0), degree=4)
    ov.bootstrap(12)
    return ov


class TestTerminationPolicy:
    def test_crowds_geometric_mean_length(self):
        pol = TerminationPolicy.crowds(0.75)
        assert pol.expected_length() == pytest.approx(4.0)
        rng = np.random.default_rng(0)
        # Empirical delivery probability after first forwarder ~= 0.25.
        hits = sum(pol.should_deliver(1, rng) for _ in range(10_000))
        assert hits / 10_000 == pytest.approx(0.25, abs=0.02)

    def test_never_delivers_before_first_forwarder(self):
        pol = TerminationPolicy.crowds(0.0)
        rng = np.random.default_rng(0)
        assert not pol.should_deliver(0, rng)

    def test_ttl_exact(self):
        pol = TerminationPolicy.hop_ttl(3)
        rng = np.random.default_rng(0)
        assert not pol.should_deliver(2, rng)
        assert pol.should_deliver(3, rng)
        assert pol.expected_length() == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TerminationPolicy.crowds(1.0)
        with pytest.raises(ValueError):
            TerminationPolicy.hop_ttl(0)


class TestPathBuilder:
    def test_builds_valid_path(self, overlay):
        b = make_builder(overlay)
        path = b.build_round(1, 1, initiator=0, responder=11, contract=Contract(50, 100))
        assert path.initiator == 0 and path.responder == 11
        assert path.length >= 1
        assert 11 not in path.forwarder_set

    def test_ttl_paths_have_exact_length(self, overlay):
        b = make_builder(overlay, termination=TerminationPolicy.hop_ttl(4))
        path = b.build_round(1, 1, 0, 11, Contract(50, 100))
        assert path.length == 4

    def test_offline_initiator_fails(self, overlay):
        b = make_builder(overlay)
        overlay.leave(0, 1.0)
        with pytest.raises(PathFailure, match="initiator offline"):
            b.build_round(1, 1, 0, 11, Contract(50, 100))

    def test_history_committed_after_round(self, overlay):
        b = make_builder(overlay)
        path = b.build_round(1, 1, 0, 11, Contract(50, 100))
        for pred, node, succ in path.hop_records():
            recs = b.histories[node].records_for(1)
            assert any(
                r.predecessor == pred and r.successor == succ for r in recs
            )

    def test_hop_listener_sees_every_edge(self, overlay):
        events = []
        b = make_builder(overlay, hop_listener=events.append)
        path = b.build_round(1, 1, 0, 11, Contract(50, 100))
        assert [(e.sender, e.receiver) for e in events] == path.edges

    def test_malicious_nodes_route_randomly(self, overlay):
        for node in overlay.nodes.values():
            node.malicious = True
        b = make_builder(overlay)
        # All-adversary population still forms paths (random routing).
        path = b.build_round(1, 1, 0, 11, Contract(50, 100))
        assert path.length >= 1

    def test_reformation_counted_on_dead_end(self, overlay):
        # All nodes decline (absurd participation cost) -> every attempt
        # dead-ends at the initiator.
        for node in overlay.nodes.values():
            node.participation_cost = 10_000.0
        b = make_builder(overlay, max_attempts=3)
        with pytest.raises(PathFailure) as err:
            b.build_round(1, 1, 0, 11, Contract(50, 100))
        assert err.value.reformations == 3
        assert b.reformations == 3

    def test_max_path_length_forces_delivery(self, overlay):
        b = make_builder(
            overlay,
            strategy=RandomRouting(),
            termination=TerminationPolicy.crowds(0.99),
            max_path_length=5,
        )
        path = b.build_round(1, 1, 0, 11, Contract(50, 100))
        assert path.length <= 5

    def test_validate_detects_mismatched_report(self, overlay):
        b = make_builder(overlay)
        path = b.build_round(1, 1, 0, 11, Contract(50, 100))
        assert b.validate(path, tuple(path.forwarders))
        assert not b.validate(path, tuple(path.forwarders) + (3,))


class TestConnectionSeries:
    def test_runs_requested_rounds(self, overlay):
        b = make_builder(overlay)
        series = ConnectionSeries(
            cid=1, initiator=0, responder=11, contract=Contract(50, 100), builder=b
        )
        log = series.run(5)
        assert log.rounds_completed + log.failed_rounds == 5

    def test_settlement_matches_contract_formula(self, overlay):
        b = make_builder(overlay)
        contract = Contract(forwarding_benefit=10.0, routing_benefit=100.0)
        series = ConnectionSeries(
            cid=1, initiator=0, responder=11, contract=contract, builder=b
        )
        log = series.run(6)
        payments = series.settlement()
        union = log.union_forwarder_set()
        instances = log.total_instances()
        assert set(payments) == set(union)
        for node, amount in payments.items():
            expected = instances[node] * 10.0 + 100.0 / len(union)
            assert amount == pytest.approx(expected)

    def test_settlement_total_is_initiator_outlay(self, overlay):
        b = make_builder(overlay)
        contract = Contract(10.0, 100.0)
        series = ConnectionSeries(
            cid=1, initiator=0, responder=11, contract=contract, builder=b
        )
        log = series.run(6)
        total = sum(series.settlement().values())
        instances = sum(log.total_instances().values())
        expected = instances * contract.forwarding_benefit + contract.routing_benefit
        assert total == pytest.approx(expected)

    def test_empty_series_settlement_empty(self, overlay):
        overlay.leave(0, 1.0)
        b = make_builder(overlay)
        series = ConnectionSeries(
            cid=1, initiator=0, responder=11, contract=Contract(50, 100), builder=b
        )
        series.run(2)
        assert series.settlement() == {}

    def test_round_count_validation(self, overlay):
        b = make_builder(overlay)
        series = ConnectionSeries(
            cid=1, initiator=0, responder=11, contract=Contract(50, 100), builder=b
        )
        with pytest.raises(ValueError):
            series.run(0)
