"""Unit oracle for the planner's incremental selectivity hit rows.

:class:`repro.core.kernels.HitRows` replaces the single-process
planner's per-(member, edge) ``bisect`` numerators with one row gather.
Every test here checks a row against those bisect counts directly,
through each way the histories can change under the store: plain
records, capacity eviction, ``forget_series``, profiles added after the
store bound, two planners sharing one histories mapping, a topology
rebuild, and entries at or past the queried round (which must take the
bisect fallback instead of over-counting).  A leak guard pins that the
store adds no reference cycle to a finished scenario.
"""

import gc
import weakref
from bisect import bisect_left

import numpy as np

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.history import HistoryProfile
from repro.core.kernels import BatchPlanner, HitRows, WorldArrays
from repro.core.protocol import PathBuilder, TerminationPolicy
from repro.core.routing import UtilityModelII
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.network.overlay import Overlay
from repro.sim.monitoring import PERF

#: Far past every recorded round: the oracle then counts every entry.
HORIZON = 1 << 30


def _overlay(n=24, degree=4, seed=9):
    overlay = Overlay(rng=np.random.default_rng(seed), degree=degree)
    overlay.bootstrap(n)
    return overlay


def _bisect_row(world, histories, cid, round_index=HORIZON):
    """The fallback's numerator: one ``bisect_left`` count per (node,
    neighbour) edge over the stored per-edge round lists."""
    row = np.zeros(world.n_edges, dtype=np.int64)
    for nid, lst in world.nbr_lists.items():
        series = histories[nid]._edge_rounds.get(cid, {})
        start = int(world.indptr[nid])
        for j, succ in enumerate(lst):
            row[start + j] = bisect_left(series.get(succ, []), round_index)
    return row


def _store(overlay, histories):
    world = WorldArrays(overlay)
    world.ensure_fresh()
    store = HitRows(world)
    store.bind(histories)
    return world, store


def _record_random(rng, world, histories, n, cids=(0, 1, 2), max_round=40):
    for _ in range(n):
        nid = int(rng.choice(list(world.nbr_lists)))
        lst = world.nbr_lists[nid]
        if not lst:
            continue
        histories[nid].record(
            int(rng.choice(cids)),
            int(rng.integers(1, max_round)),
            predecessor=-1,
            successor=int(rng.choice(lst)),
        )


def _assert_exact(world, store, histories, cids=(0, 1, 2)):
    for cid in cids:
        np.testing.assert_array_equal(
            store.row(cid, HORIZON, histories), _bisect_row(world, histories, cid)
        )


class TestHitRows:
    def test_rows_match_bisect_counts(self):
        overlay = _overlay()
        histories = {nid: HistoryProfile(node_id=nid) for nid in overlay.nodes}
        world, store = _store(overlay, histories)
        rng = np.random.default_rng(3)
        for _ in range(100):
            _record_random(rng, world, histories, 3)
            # Interleave queries so both the materialise path and the
            # write-through path are exercised.
            if rng.random() < 0.3:
                _assert_exact(world, store, histories)
        _assert_exact(world, store, histories)

    def test_rows_are_int32(self):
        overlay = _overlay()
        histories = {nid: HistoryProfile(node_id=nid) for nid in overlay.nodes}
        _, store = _store(overlay, histories)
        assert store.row(0, HORIZON, histories).dtype == np.int32

    def test_capacity_eviction_matches_bisect(self):
        overlay = _overlay()
        histories = {
            nid: HistoryProfile(node_id=nid, capacity=3) for nid in overlay.nodes
        }
        world, store = _store(overlay, histories)
        rng = np.random.default_rng(5)
        _assert_exact(world, store, histories)  # materialise before evictions
        for _ in range(60):
            _record_random(rng, world, histories, 5)
            _assert_exact(world, store, histories)

    def test_forget_series_matches_bisect(self):
        overlay = _overlay()
        histories = {nid: HistoryProfile(node_id=nid) for nid in overlay.nodes}
        world, store = _store(overlay, histories)
        rng = np.random.default_rng(7)
        _record_random(rng, world, histories, 200)
        _assert_exact(world, store, histories)
        for nid in list(world.nbr_lists)[::3]:
            histories[nid].forget_series(1)
        _assert_exact(world, store, histories)
        _record_random(rng, world, histories, 50)
        _assert_exact(world, store, histories)

    def test_bind_seeds_from_existing_entries(self):
        overlay = _overlay()
        histories = {nid: HistoryProfile(node_id=nid) for nid in overlay.nodes}
        world = WorldArrays(overlay)
        world.ensure_fresh()
        nid = next(iter(world.nbr_lists))
        histories[nid].record(2, 5, predecessor=-1, successor=world.nbr_lists[nid][0])
        store = HitRows(world)  # bound on first use, after the record
        assert store.row(2, 5, histories) is None  # round 5 is not below 5
        np.testing.assert_array_equal(
            store.row(2, 6, histories), _bisect_row(world, histories, 2, 6)
        )

    def test_profile_added_after_binding(self):
        overlay = _overlay()
        histories = {nid: HistoryProfile(node_id=nid) for nid in overlay.nodes}
        world, store = _store(overlay, histories)
        rng = np.random.default_rng(11)
        _record_random(rng, world, histories, 100)
        _assert_exact(world, store, histories)
        # A fresh identity joins (what a Sybil spawn does): new overlay
        # node, new profile in the shared mapping.
        node = overlay.spawn_node()
        overlay.join(node.node_id, now=0.0)
        node.set_neighbors(overlay.sample_peers(4, exclude={node.node_id}))
        histories[node.node_id] = HistoryProfile(node_id=node.node_id)
        world.ensure_fresh()
        succ = world.nbr_lists[node.node_id][0]
        # One record before the store sees the new profile, one after.
        histories[node.node_id].record(1, 3, predecessor=-1, successor=succ)
        _assert_exact(world, store, histories)
        histories[node.node_id].record(1, 4, predecessor=-1, successor=succ)
        _assert_exact(world, store, histories)
        assert store.row(1, HORIZON, histories)[
            int(world.indptr[node.node_id])
        ] == 2

    def test_two_planners_share_one_histories_dict(self):
        overlay = _overlay()
        histories = {nid: HistoryProfile(node_id=nid) for nid in overlay.nodes}
        planners = [BatchPlanner(WorldArrays(overlay)) for _ in range(2)]
        for planner in planners:
            planner.world.ensure_fresh()
            planner.hits.bind(histories)
        rng = np.random.default_rng(13)
        for _ in range(20):
            _record_random(rng, planners[0].world, histories, 10)
            for planner in planners:
                _assert_exact(planner.world, planner.hits, histories)
        assert all(
            len(h._subscribers) == 2 for h in histories.values()
        )

    def test_topology_rebuild_rematerialises(self):
        overlay = _overlay()
        histories = {nid: HistoryProfile(node_id=nid) for nid in overlay.nodes}
        world, store = _store(overlay, histories)
        rng = np.random.default_rng(17)
        _record_random(rng, world, histories, 150)
        _assert_exact(world, store, histories)
        generation = world.generation
        nid = next(iter(world.nbr_lists))
        node = overlay.nodes[nid]
        fresh = overlay.sample_peers(5, exclude={nid})
        node.set_neighbors(fresh)
        # Records land while the arrays still hold the old layout.
        for succ in fresh:
            histories[nid].record(1, 2, predecessor=-1, successor=succ)
        world.ensure_fresh()
        assert world.generation != generation
        _assert_exact(world, store, histories)

    def test_dropped_row_rematerialises(self):
        overlay = _overlay()
        histories = {nid: HistoryProfile(node_id=nid) for nid in overlay.nodes}
        world, store = _store(overlay, histories)
        rng = np.random.default_rng(19)
        _record_random(rng, world, histories, 80)
        _assert_exact(world, store, histories)
        store.drop(1)
        assert 1 not in store.rows
        _record_random(rng, world, histories, 80)
        _assert_exact(world, store, histories)

    def test_future_round_entries_take_the_fallback(self):
        overlay = _overlay()
        histories = {nid: HistoryProfile(node_id=nid) for nid in overlay.nodes}
        world, store = _store(overlay, histories)
        nid = next(iter(world.nbr_lists))
        succ = world.nbr_lists[nid][0]
        for rnd in range(1, 7):  # rounds 1..6 stored up front
            histories[nid].record(1, rnd, predecessor=-1, successor=succ)
        for rnd in range(1, 7):
            assert store.row(1, rnd, histories) is None
        np.testing.assert_array_equal(
            store.row(1, 7, histories), _bisect_row(world, histories, 1, 7)
        )
        assert store.row(1, 7, histories).sum() == 6


def _builder(overlay, histories):
    return PathBuilder(
        overlay=overlay,
        cost_model=CostModel(bandwidth=None, flat_unit_cost=1.0),
        histories=histories,
        rng=np.random.default_rng(1),
        good_strategy=UtilityModelII(lookahead=2),
        termination=TerminationPolicy.hop_ttl(3),
        backend="numpy",
        kernel_crossover=False,
    )


def _build(builder, overlay, rounds):
    for rnd in rounds:
        builder.build_round(
            cid=1,
            round_index=rnd,
            initiator=0,
            responder=len(overlay.nodes) - 1,
            contract=Contract.from_tau(60.0, 2.0),
        )


class TestPlannerFallback:
    def test_in_order_rounds_never_fall_back(self):
        overlay = _overlay()
        histories = {nid: HistoryProfile(node_id=nid) for nid in overlay.nodes}
        PERF.reset()
        _build(_builder(overlay, histories), overlay, range(1, 6))
        assert PERF.kernel_calls > 0
        assert PERF.hit_row_fallbacks == 0

    def test_prerecorded_rounds_fall_back(self):
        overlay = _overlay()
        histories = {nid: HistoryProfile(node_id=nid) for nid in overlay.nodes}
        nid = next(iter(overlay.nodes))
        succ = sorted(overlay.nodes[nid].neighbors)[0]
        for rnd in range(1, 7):
            histories[nid].record(1, rnd, predecessor=-1, successor=succ)
        PERF.reset()
        _build(_builder(overlay, histories), overlay, range(1, 6))
        assert PERF.hit_row_fallbacks > 0


def test_finished_scenario_is_freed_without_gc(monkeypatch):
    """Profiles hold their hit-row subscribers weakly and the store holds
    no profile, so a finished run's builder and histories die by
    reference counting alone.  A cycle through the store (profile ->
    store -> histories -> profile) would keep every finished scenario
    alive until a full GC."""
    tracked = []
    post_init = PathBuilder.__post_init__

    def track(self):
        post_init(self)
        tracked.append(weakref.ref(self))
        tracked.extend(weakref.ref(p) for p in self.histories.values())

    monkeypatch.setattr(PathBuilder, "__post_init__", track)
    config = ExperimentConfig(
        seed=3,
        n_nodes=30,
        n_pairs=4,
        total_transmissions=32,
        strategy="utility-II",
        lookahead=2,
        use_bank=False,
        backend="numpy",
    )
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_scenario(config)
        assert result.perf_counters["kernel_calls"] > 0
        del result
        assert tracked
        assert all(ref() is None for ref in tracked)
    finally:
        if was_enabled:
            gc.enable()
