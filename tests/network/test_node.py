"""Tests for PeerNode: lifecycle, neighbours, availability estimate."""

import pickle

import numpy as np
import pytest

from repro.network.node import NodeState, PeerNode
from repro.network.overlay import Overlay


def make_node(node_id=1, degree=3):
    return PeerNode(node_id=node_id, degree=degree)


class TestLifecycle:
    def test_initial_state_offline(self):
        assert make_node().state is NodeState.OFFLINE

    def test_go_online_records_first_join(self):
        n = make_node()
        n.go_online(now=10.0)
        assert n.is_online
        assert n.first_join_time == 10.0

    def test_double_online_rejected(self):
        n = make_node()
        n.go_online(0.0)
        with pytest.raises(RuntimeError):
            n.go_online(1.0)

    def test_offline_accumulates_session_time(self):
        n = make_node()
        n.go_online(0.0)
        n.go_offline(30.0)
        n.go_online(50.0)
        n.go_offline(70.0)
        assert n.total_session_time == pytest.approx(50.0)

    def test_offline_before_online_rejected(self):
        with pytest.raises(RuntimeError):
            make_node().go_offline(5.0)

    def test_session_cannot_end_in_past(self):
        n = make_node()
        n.go_online(10.0)
        with pytest.raises(ValueError):
            n.go_offline(5.0)

    def test_depart_is_final(self):
        n = make_node()
        n.go_online(0.0)
        n.depart(10.0)
        assert n.state is NodeState.DEPARTED
        assert n.final_departure_time == 10.0
        with pytest.raises(RuntimeError):
            n.go_online(20.0)

    def test_depart_while_online_closes_session(self):
        n = make_node()
        n.go_online(0.0)
        n.depart(25.0)
        assert n.total_session_time == pytest.approx(25.0)


class TestTrueAvailability:
    def test_never_joined_is_zero(self):
        assert make_node().true_availability(100.0) == 0.0

    def test_always_online_is_one(self):
        n = make_node()
        n.go_online(0.0)
        assert n.true_availability(50.0) == pytest.approx(1.0)

    def test_half_online(self):
        n = make_node()
        n.go_online(0.0)
        n.go_offline(50.0)
        assert n.true_availability(100.0) == pytest.approx(0.5)

    def test_uses_final_departure_as_lifetime_end(self):
        n = make_node()
        n.go_online(0.0)
        n.go_offline(40.0)
        n.depart(80.0)
        # Lifetime = 80, session = 40, regardless of when we ask.
        assert n.true_availability(1000.0) == pytest.approx(0.5)


class TestNeighbors:
    def test_set_neighbors_resets_counters(self):
        n = make_node()
        n.set_neighbors([2, 3, 4])
        assert sorted(n.neighbor_ids()) == [2, 3, 4]
        assert all(v.session_time == 0.0 for v in n.neighbors.values())

    def test_self_neighbor_rejected(self):
        n = make_node(node_id=1)
        with pytest.raises(ValueError):
            n.set_neighbors([1, 2])
        with pytest.raises(ValueError):
            n.add_neighbor(1)

    def test_duplicate_neighbors_rejected(self):
        with pytest.raises(ValueError):
            make_node().set_neighbors([2, 2])

    def test_add_existing_neighbor_rejected(self):
        n = make_node()
        n.set_neighbors([2])
        with pytest.raises(ValueError):
            n.add_neighbor(2)

    def test_add_with_initial_session_time(self):
        n = make_node()
        n.add_neighbor(5, initial_session_time=2.5)
        assert n.neighbors[5].session_time == 2.5

    def test_remove_missing_neighbor_raises(self):
        with pytest.raises(KeyError):
            make_node().remove_neighbor(9)


class TestAvailabilityEstimate:
    def test_no_probes_yet_gives_zero(self):
        n = make_node()
        n.set_neighbors([2, 3])
        assert n.availability(2) == 0.0

    def test_normalised_over_neighbor_set(self):
        n = make_node()
        n.set_neighbors([2, 3, 4])
        n.neighbors[2].session_time = 30.0
        n.neighbors[3].session_time = 10.0
        n.neighbors[4].session_time = 0.0
        assert n.availability(2) == pytest.approx(0.75)
        assert n.availability(3) == pytest.approx(0.25)
        assert n.availability(4) == 0.0

    def test_vector_sums_to_one(self):
        n = make_node()
        n.set_neighbors([2, 3, 4])
        for i, nid in enumerate(n.neighbors, start=1):
            n.neighbors[nid].session_time = float(i)
        vec = n.availability_vector()
        assert sum(vec.values()) == pytest.approx(1.0)

    def test_unknown_neighbor_raises(self):
        n = make_node()
        n.set_neighbors([2])
        with pytest.raises(KeyError):
            n.availability(99)


class TestSlotsAndPickling:
    """Nodes are slotted, and an overlay still round-trips through pickle
    (the replicate pool pickles results that hold it)."""

    def test_node_has_no_instance_dict(self):
        node = make_node()
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.undeclared = 1

    def test_overlay_with_pending_sweeps_round_trips(self):
        overlay = Overlay(rng=np.random.default_rng(11), degree=4)
        overlay.bootstrap(30)
        for node_id in (0, 7, 19):
            node = overlay.nodes[node_id]
            node.credit_session_times(node.neighbor_ids()[:2], 0.7, now=1.0)
        overlay.log_fast_sweep(5.0, 2.0)
        overlay.log_fast_sweep(0.1, 3.0)

        copy = pickle.loads(pickle.dumps(overlay))

        def views(ov):
            return {
                nid: [(vid, v.session_time, v.last_seen) for vid, v in n.neighbors.items()]
                for nid, n in ov.nodes.items()
            }

        assert views(copy) == views(overlay)
        # The copy's nodes follow the copy's own log.
        for ov in (copy, overlay):
            ov.log_fast_sweep(7.3, 4.0)
        assert views(copy) == views(overlay)
        assert copy.nodes[7].availability_vector() == overlay.nodes[7].availability_vector()
