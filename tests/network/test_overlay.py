"""Tests for the overlay: membership, discovery, bootstrap."""

import numpy as np
import pytest

from repro.network.node import PeerNode
from repro.network.overlay import Overlay


def make_overlay(seed=0, degree=3):
    return Overlay(rng=np.random.default_rng(seed), degree=degree)


class TestBootstrap:
    def test_creates_n_online_nodes(self):
        ov = make_overlay()
        ov.bootstrap(10)
        assert len(ov) == 10
        assert ov.online_count() == 10

    def test_neighbor_sets_have_degree(self):
        ov = make_overlay(degree=4)
        ov.bootstrap(10)
        for node in ov.nodes.values():
            assert len(node.neighbors) == 4
            assert node.node_id not in node.neighbors

    def test_malicious_fraction_rounded(self):
        ov = make_overlay()
        ov.bootstrap(20, malicious_fraction=0.25)
        assert len(ov.malicious_nodes()) == 5
        assert len(ov.good_nodes()) == 15

    def test_trace_records_joins(self):
        ov = make_overlay()
        ov.bootstrap(5, now=2.0)
        assert len(ov.trace) == 5
        assert ov.trace.online_at(2.0) == frozenset(range(5))

    def test_too_small_population_rejected(self):
        with pytest.raises(ValueError):
            make_overlay().bootstrap(1)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_overlay().bootstrap(10, malicious_fraction=1.5)

    def test_builds_sorted_online_array_once(self, monkeypatch):
        # Structural guard against the quadratic set-up: one sorted online
        # array for the whole bootstrap, and one neighbour set per node.
        calls = {"fromiter": 0, "set_neighbors": 0}
        fromiter = np.fromiter
        set_neighbors = PeerNode.set_neighbors

        def counting_fromiter(*args, **kwargs):
            calls["fromiter"] += 1
            return fromiter(*args, **kwargs)

        def counting_set_neighbors(node, ids):
            calls["set_neighbors"] += 1
            set_neighbors(node, ids)

        monkeypatch.setattr(np, "fromiter", counting_fromiter)
        monkeypatch.setattr(PeerNode, "set_neighbors", counting_set_neighbors)
        make_overlay(degree=5).bootstrap(2000)
        assert calls == {"fromiter": 1, "set_neighbors": 2000}


class TestMembership:
    def test_leave_and_rejoin(self):
        ov = make_overlay()
        ov.bootstrap(5)
        ov.leave(2, now=10.0)
        assert not ov.is_online(2)
        assert ov.online_count() == 4
        ov.join(2, now=20.0)
        assert ov.is_online(2)

    def test_depart_removes_permanently(self):
        ov = make_overlay()
        ov.bootstrap(5)
        ov.depart(3, now=5.0)
        assert not ov.is_online(3)
        with pytest.raises(RuntimeError):
            ov.join(3, now=6.0)

    def test_depart_of_offline_node_keeps_liveness_version(self):
        ov = make_overlay()
        ov.bootstrap(5)
        ov.leave(2, now=1.0)
        version, events = ov.liveness_version, len(ov.trace)
        ov.depart(2, now=2.0)
        assert ov.liveness_version == version
        assert len(ov.trace) == events
        ov.depart(3, now=3.0)
        assert ov.liveness_version == version + 1

    def test_join_wires_neighbors_for_new_node(self):
        ov = make_overlay(degree=3)
        ov.bootstrap(6)
        fresh = ov.spawn_node()
        ov.join(fresh.node_id, now=1.0)
        assert len(fresh.neighbors) == 3

    def test_online_ids_sorted(self):
        ov = make_overlay()
        ov.bootstrap(6)
        assert ov.online_ids() == sorted(ov.online_ids())

    def test_online_mask_matches_online_set(self):
        ov = make_overlay()
        ov.bootstrap(12)
        ov.leave(3, now=1.0)
        ov.depart(5, now=1.0)
        ov.leave(7, now=2.0)
        ov.join(3, now=3.0)
        ov.depart(7, now=4.0)
        fresh = ov.spawn_node()
        ov.join(fresh.node_id, now=5.0)
        ov.spawn_node()
        for size in (0, 4, ov.id_space(), ov.id_space() + 3):
            expected = np.zeros(size, dtype=bool)
            for nid in ov._online:
                if nid < size:
                    expected[nid] = True
            np.testing.assert_array_equal(ov.online_mask(size), expected)


class TestDiscovery:
    def test_sample_excludes(self):
        ov = make_overlay()
        ov.bootstrap(10)
        for _ in range(20):
            picked = ov.sample_peers(3, exclude={0, 1})
            assert not {0, 1} & set(picked)
            assert len(set(picked)) == 3

    def test_sample_too_many_raises(self):
        ov = make_overlay()
        ov.bootstrap(4)
        with pytest.raises(ValueError):
            ov.sample_peers(4, exclude={0})

    def test_random_online_peer_none_when_empty(self):
        ov = make_overlay()
        ov.bootstrap(2)
        assert ov.random_online_peer(exclude={0, 1}) is None

    def test_sample_only_online(self):
        ov = make_overlay()
        ov.bootstrap(6)
        ov.leave(0, 1.0)
        ov.leave(1, 1.0)
        for _ in range(10):
            assert not {0, 1} & set(ov.sample_peers(3))

    def test_spawn_ids_monotonic(self):
        ov = make_overlay()
        ov.bootstrap(3)
        n = ov.spawn_node()
        assert n.node_id == 3
        assert ov.spawn_node().node_id == 4
