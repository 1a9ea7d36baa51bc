"""Tests for the reputation baseline and its collusion weakness (§4)."""

import numpy as np
import pytest

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.history import HistoryProfile
from repro.core.path import Path
from repro.core.protocol import ConnectionSeries, PathBuilder, TerminationPolicy
from repro.core.reputation import (
    ReputationRouting,
    ReputationSystem,
    inject_collusion_feedback,
)
from repro.network.overlay import Overlay


def make_path(forwarders, rnd=1):
    return Path(cid=1, round_index=rnd, initiator=0, responder=9,
                forwarders=tuple(forwarders))


class TestReputationSystem:
    def test_prior_is_half(self):
        assert ReputationSystem().reputation(5) == pytest.approx(0.5)

    def test_success_raises_failure_lowers(self):
        s = ReputationSystem()
        s.record_success(1)
        s.record_failure(2)
        assert s.reputation(1) > 0.5 > s.reputation(2)

    def test_converges_to_success_rate(self):
        s = ReputationSystem()
        for _ in range(100):
            s.record_success(1)
        for _ in range(300):
            s.record_failure(1)
        assert s.reputation(1) == pytest.approx(0.25, abs=0.01)

    def test_ingest_round_credits_instances(self):
        s = ReputationSystem()
        s.ingest_round(make_path([3, 5, 3]))
        assert s.positive[3] == 2.0
        assert s.positive[5] == 1.0

    def test_ingest_failed_round_debits_suspects(self):
        s = ReputationSystem()
        s.ingest_round(None, suspects=[7])
        assert s.reputation(7) < 0.5

    def test_negative_weight_rejected(self):
        s = ReputationSystem()
        with pytest.raises(ValueError):
            s.record_success(1, weight=-1.0)

class TestReputationRouting:
    def test_selects_highest_reputation_neighbor(self):
        ov = Overlay(rng=np.random.default_rng(0), degree=3)
        ov.bootstrap(8)
        node = ov.nodes[0]
        nbrs = node.neighbor_ids()
        system = ReputationSystem()
        system.record_success(nbrs[1], 50)
        from repro.core.routing import ForwardingContext

        ctx = ForwardingContext(
            cid=1, round_index=1, contract=Contract(50, 100), responder=99,
            overlay=ov, cost_model=CostModel(),
            histories={nid: HistoryProfile(nid) for nid in ov.nodes},
            rng=np.random.default_rng(1),
        )
        strat = ReputationRouting(system=system)
        assert strat.select_next_hop(node, None, ctx) == nbrs[1]

    def test_integrates_with_path_builder(self):
        ov = Overlay(rng=np.random.default_rng(2), degree=4)
        ov.bootstrap(12)
        system = ReputationSystem()
        builder = PathBuilder(
            overlay=ov,
            cost_model=CostModel(),
            histories={nid: HistoryProfile(nid) for nid in ov.nodes},
            rng=np.random.default_rng(3),
            good_strategy=ReputationRouting(system=system),
            termination=TerminationPolicy.crowds(0.6),
        )
        series = ConnectionSeries(
            cid=1, initiator=0, responder=11, contract=Contract(50, 100),
            builder=builder,
        )
        for _ in range(5):
            path = series.run_round()
            system.ingest_round(path)
        assert series.log.rounds_completed == 5


class TestCollusion:
    def test_collusion_inflates_scores_without_service(self):
        system = ReputationSystem()
        # Honest nodes earn reputation by actually forwarding.
        for nid in (1, 2, 3):
            system.record_success(nid, 10)
        coalition = (10, 11, 12)
        inject_collusion_feedback(system, coalition, rounds=100)
        for member in coalition:
            assert system.reputation(member) > max(
                system.reputation(n) for n in (1, 2, 3)
            )

    def test_incentive_mechanism_immune_by_construction(self):
        """The contrast the paper draws: settlements derive from the
        initiator-validated path, so testimony flooding changes nothing."""
        from repro.core.path import SeriesLog

        log = SeriesLog(cid=1, initiator=0, responder=9)
        log.add(make_path([1, 2]))
        contract = Contract(10.0, 100.0)
        union = log.union_forwarder_set()
        payments = {
            x: contract.forwarder_payment(log.total_instances()[x], len(union))
            for x in union
        }
        # No amount of coalition "feedback" enters this computation:
        assert set(payments) == {1, 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            inject_collusion_feedback(ReputationSystem(), (1, 2), rounds=-1)
