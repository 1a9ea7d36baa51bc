"""Tests for the predecessor attack and history-profile abuse."""

import pytest

from repro.adversary.traffic_analysis import HistoryProfileAttack, PredecessorAttack
from repro.core.history import HistoryProfile
from repro.core.path import Path


def make_path(forwarders, rnd, cid=1, initiator=0, responder=9):
    return Path(
        cid=cid, round_index=rnd, initiator=initiator, responder=responder,
        forwarders=tuple(forwarders),
    )


class TestPredecessorAttack:
    def test_corrupt_first_hop_sees_initiator(self):
        attack = PredecessorAttack(coalition=frozenset({3}))
        # Node 3 is the first forwarder on every round: predecessor = I.
        for rnd in range(1, 6):
            attack.ingest_path(make_path([3, 5], rnd))
        assert attack.guess_initiator(1) == 0
        assert attack.confidence(1) == pytest.approx(1.0)

    def test_mid_path_position_dilutes_guess(self):
        attack = PredecessorAttack(coalition=frozenset({5}))
        # Node 5 always second; predecessor is forwarder 3, not I.
        for rnd in range(1, 4):
            attack.ingest_path(make_path([3, 5], rnd))
        assert attack.guess_initiator(1) == 3  # wrong guess — good for us

    def test_coalition_members_not_suspected(self):
        attack = PredecessorAttack(coalition=frozenset({3, 5}))
        attack.ingest_path(make_path([3, 5], 1))
        counts = attack.predecessor_counts(1)
        assert 3 not in counts  # colluders exclude each other

    def test_no_observations_no_guess(self):
        attack = PredecessorAttack(coalition=frozenset({3}))
        attack.ingest_path(make_path([5, 6], 1))  # coalition not on path
        assert attack.guess_initiator(1) is None
        assert attack.confidence(1) == 0.0

    def test_series_separated_by_cid(self):
        attack = PredecessorAttack(coalition=frozenset({3}))
        attack.ingest_path(make_path([3], 1, cid=1, initiator=0))
        attack.ingest_path(make_path([3], 1, cid=2, initiator=7))
        assert attack.guess_initiator(1) == 0
        assert attack.guess_initiator(2) == 7

    def test_ingest_returns_observation_count(self):
        attack = PredecessorAttack(coalition=frozenset({3, 5}))
        assert attack.ingest_path(make_path([3, 5], 1)) == 2


class TestHistoryProfileAttack:
    def test_linked_edges_from_captured_profiles(self):
        h = HistoryProfile(5)
        h.record(cid=1, round_index=1, predecessor=3, successor=7)
        attack = HistoryProfileAttack()
        attack.capture(h)
        edges = attack.linked_edges(1)
        assert (5, 7) in edges  # outgoing edge
        assert (3, 5) in edges  # incoming edge

    def test_wrong_cid_reveals_nothing(self):
        h = HistoryProfile(5)
        h.record(cid=2, round_index=1, predecessor=3, successor=7)
        attack = HistoryProfileAttack()
        attack.capture(h)
        assert attack.linked_edges(1) == set()
