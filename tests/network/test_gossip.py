"""Tests for gossip-based membership."""

import numpy as np
import pytest

from repro.network.gossip import GossipMembership, PartialView
from repro.network.overlay import Overlay


def make_world(n=20, seed=0, **kwargs):
    ov = Overlay(rng=np.random.default_rng(seed), degree=4)
    ov.bootstrap(n)
    gm = GossipMembership(overlay=ov, rng=np.random.default_rng(seed + 1), **kwargs)
    gm.bootstrap_from_neighbors()
    return ov, gm


class TestPartialView:
    def test_insert_and_eviction(self):
        v = PartialView(owner=0, capacity=3)
        for nid, age in [(1, 5), (2, 1), (3, 2)]:
            v.insert(nid, age=age)
        v.insert(4)  # evicts oldest (1, age 5)
        assert sorted(v.ids()) == [2, 3, 4]

    def test_never_contains_owner(self):
        v = PartialView(owner=7)
        v.insert(7)
        assert len(v) == 0

    def test_refresh_keeps_younger_age(self):
        v = PartialView(owner=0)
        v.insert(1, age=9)
        v.insert(1, age=0)
        assert v.entries[1].age == 0

    def test_oldest_peer(self):
        v = PartialView(owner=0)
        v.insert(1, age=2)
        v.insert(2, age=7)
        assert v.oldest_peer() == 2
        assert PartialView(owner=0).oldest_peer() is None

    def test_sample_excludes(self):
        v = PartialView(owner=0)
        for nid in (1, 2, 3):
            v.insert(nid)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert 2 not in v.sample(3, rng, exclude=(2,))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PartialView(owner=0, capacity=0)


class TestGossip:
    def test_bootstrap_seeds_views(self):
        ov, gm = make_world()
        for node in ov.nodes.values():
            assert set(node.neighbor_ids()) <= set(gm.view_of(node.node_id).ids())

    def test_rounds_spread_knowledge(self):
        ov, gm = make_world(n=20)
        before = np.mean([len(gm.view_of(n)) for n in ov.online_ids()])
        for _ in range(10):
            gm.run_round()
        after = np.mean([len(gm.view_of(n)) for n in ov.online_ids()])
        assert after >= before
        assert gm.reach() == 1.0  # overlay stays connected through views

    def test_failure_detection_purges_dead(self):
        ov, gm = make_world(n=20)
        for _ in range(5):
            gm.run_round()
        # Kill a quarter of the population.
        for nid in list(ov.online_ids())[:5]:
            ov.depart(nid, 1.0)
        for _ in range(15):
            gm.run_round()
        live = [
            sum(ov.is_online(peer) for peer in view.entries) / len(view.entries)
            for view in map(gm.view_of, ov.online_ids())
            if view.entries
        ]
        assert float(np.mean(live)) > 0.8

    def test_discover_returns_live_peer(self):
        ov, gm = make_world(n=15)
        for _ in range(5):
            gm.run_round()
        for node_id in ov.online_ids()[:5]:
            found = gm.discover(node_id)
            assert found is not None
            assert ov.is_online(found)
            assert found != node_id

    def test_discover_respects_exclude(self):
        ov, gm = make_world(n=10)
        for _ in range(5):
            gm.run_round()
        node = ov.online_ids()[0]
        banned = tuple(gm.view_of(node).ids())[:3]
        found = gm.discover(node, exclude=banned)
        assert found not in banned

    def test_discover_prunes_dead_candidates(self):
        ov, gm = make_world(n=10)
        gm.run_round()
        node = ov.online_ids()[0]
        victim = gm.view_of(node).ids()[0]
        ov.leave(victim, 1.0)
        # discover() never returns the dead peer, and (because it prunes
        # dead entries it encounters while scanning) repeated calls
        # eventually remove it from the view.
        for _ in range(20):
            assert gm.discover(node) != victim
            if victim not in gm.view_of(node).ids():
                break
        assert victim not in gm.view_of(node).ids()

    def test_deterministic(self):
        _, gm1 = make_world(seed=5)
        _, gm2 = make_world(seed=5)
        for _ in range(5):
            gm1.run_round()
            gm2.run_round()
        for nid in range(20):
            assert gm1.view_of(nid).ids() == gm2.view_of(nid).ids()

    def test_shuffle_size_validation(self):
        ov = Overlay(rng=np.random.default_rng(0), degree=3)
        ov.bootstrap(5)
        with pytest.raises(ValueError):
            GossipMembership(overlay=ov, rng=np.random.default_rng(1), shuffle_size=0)
