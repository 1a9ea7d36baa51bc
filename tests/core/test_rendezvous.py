"""Tests for mutual anonymity via rendezvous points."""

import numpy as np
import pytest

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.history import HistoryProfile
from repro.core.protocol import PathBuilder, TerminationPolicy
from repro.core.rendezvous import MutualConnection, RendezvousRegistry
from repro.core.routing import UtilityModelI
from repro.network.overlay import Overlay


@pytest.fixture
def world():
    ov = Overlay(rng=np.random.default_rng(0), degree=5)
    ov.bootstrap(24)
    builder = PathBuilder(
        overlay=ov,
        cost_model=CostModel(),
        histories={nid: HistoryProfile(nid) for nid in ov.nodes},
        rng=np.random.default_rng(1),
        good_strategy=UtilityModelI(),
        termination=TerminationPolicy.crowds(0.6),
    )
    registry = RendezvousRegistry(overlay=ov, rng=np.random.default_rng(2))
    return ov, builder, registry


def make_connection(builder, registry, initiator=0, responder=23, pseudonym="svc"):
    registry.register(responder, pseudonym)
    return MutualConnection(
        registry=registry,
        builder=builder,
        cid=1,
        initiator=initiator,
        pseudonym=pseudonym,
        contract=Contract.from_tau(75.0, 2.0),
    )


class TestRegistry:
    def test_register_and_lookup(self, world):
        ov, _b, registry = world
        desc = registry.register(23, "svc")
        assert registry.lookup("svc") == desc
        assert desc.rendezvous != 23
        assert registry.owner("svc") == 23

    def test_duplicate_pseudonym_rejected(self, world):
        _ov, _b, registry = world
        registry.register(23, "svc")
        with pytest.raises(ValueError):
            registry.register(22, "svc")

    def test_unknown_pseudonym(self, world):
        _ov, _b, registry = world
        with pytest.raises(KeyError):
            registry.lookup("ghost")


class TestMutualConnection:
    def test_rounds_complete_and_splice(self, world):
        _ov, builder, registry = world
        conn = make_connection(builder, registry)
        for _ in range(8):
            conn.run_round()
        assert conn.rounds_completed >= 6
        for mp in conn.paths:
            assert mp.initiator == 0
            assert mp.responder == 23
            # Both halves terminate at the rendezvous.
            assert mp.initiator_half.responder == mp.rendezvous
            assert mp.responder_half.responder == mp.rendezvous
            assert mp.total_length == (
                mp.initiator_half.length + mp.responder_half.length + 1
            )

    def test_mutual_anonymity_holds(self, world):
        """No single node is adjacent to both endpoints, and the
        rendezvous never touches either endpoint directly."""
        _ov, builder, registry = world
        conn = make_connection(builder, registry)
        for _ in range(10):
            conn.run_round()
        assert conn.paths
        for mp in conn.paths:
            assert mp.mutually_anonymous()
            assert mp.initiator not in (mp.rendezvous,)
            # Z only ever talks to forwarders.
            assert mp.initiator_half.forwarders  # >= 1 hop shields I
            assert mp.responder_half.forwarders  # >= 1 hop shields R

    def test_halves_use_disjoint_cids(self, world):
        _ov, builder, registry = world
        conn = make_connection(builder, registry)
        mp = conn.run_round()
        assert mp.initiator_half.cid != mp.responder_half.cid

    def test_settlements_split_between_endpoints(self, world):
        _ov, builder, registry = world
        conn = make_connection(builder, registry)
        for _ in range(6):
            conn.run_round()
        i_pay, r_pay = conn.settlements()
        assert set(i_pay) == set().union(
            *[mp.initiator_half.forwarder_set for mp in conn.paths]
        )
        assert set(r_pay) == set().union(
            *[mp.responder_half.forwarder_set for mp in conn.paths]
        )
        contract = conn.contract
        total_i_instances = sum(
            mp.initiator_half.length for mp in conn.paths
        )
        assert sum(i_pay.values()) == pytest.approx(
            total_i_instances * contract.forwarding_benefit + contract.routing_benefit
        )

    def test_failed_round_counted(self, world):
        ov, builder, registry = world
        conn = make_connection(builder, registry)
        ov.leave(0, 1.0)  # initiator offline -> its half fails
        assert conn.run_round() is None
        assert conn.failed_rounds == 1
