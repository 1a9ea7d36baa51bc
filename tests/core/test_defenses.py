"""Tests for guard nodes and cid rotation."""

import numpy as np
import pytest

from repro.adversary.traffic_analysis import HistoryProfileAttack, PredecessorAttack
from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.defenses import CidRotator, GuardRegistry
from repro.core.history import HistoryProfile
from repro.core.protocol import ConnectionSeries, PathBuilder, TerminationPolicy
from repro.core.routing import UtilityModelI
from repro.network.overlay import Overlay


def make_world(seed=0, n=16):
    ov = Overlay(rng=np.random.default_rng(seed), degree=4)
    ov.bootstrap(n)
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    return ov, histories


def make_builder(ov, histories, seed=1, **kwargs):
    return PathBuilder(
        overlay=ov,
        cost_model=CostModel(),
        histories=histories,
        rng=np.random.default_rng(seed),
        good_strategy=UtilityModelI(),
        termination=TerminationPolicy.crowds(0.6),
        **kwargs,
    )


class TestGuardRegistry:
    def test_assign_excludes_endpoints(self):
        ov, _ = make_world()
        reg = GuardRegistry(overlay=ov, rng=np.random.default_rng(2))
        guard = reg.assign(0, exclude=(15,))
        assert guard not in (0, 15)

    def test_live_guard_stable_while_online(self):
        ov, _ = make_world()
        reg = GuardRegistry(overlay=ov, rng=np.random.default_rng(2))
        first = reg.live_guard(0)
        assert all(reg.live_guard(0) == first for _ in range(5))

    def test_offline_guard_not_replaced(self):
        ov, _ = make_world()
        reg = GuardRegistry(overlay=ov, rng=np.random.default_rng(2))
        guard = reg.live_guard(0)
        ov.leave(guard, 1.0)
        assert reg.live_guard(0) is None  # fall back, don't re-pin
        ov.join(guard, 2.0)
        assert reg.live_guard(0) == guard

    def test_departed_guard_reassigned(self):
        ov, _ = make_world()
        reg = GuardRegistry(overlay=ov, rng=np.random.default_rng(2))
        guard = reg.live_guard(0)
        ov.depart(guard, 1.0)
        replacement = reg.live_guard(0)
        assert replacement is not None and replacement != guard
        assert reg.reassignments == 1

    def test_builder_uses_guard_as_first_hop(self):
        ov, histories = make_world()
        reg = GuardRegistry(overlay=ov, rng=np.random.default_rng(3))
        builder = make_builder(ov, histories, guard_registry=reg)
        guard = reg.live_guard(0, exclude=(15,))
        for rnd in range(1, 8):
            path = builder.build_round(1, rnd, 0, 15, Contract(50, 100))
            assert path.forwarders[0] == guard

    def test_guard_blunts_predecessor_attack(self):
        """With a (honest) guard, corrupt forwarders observe the guard as
        predecessor, never the initiator."""
        ov, histories = make_world(seed=5, n=20)
        reg = GuardRegistry(overlay=ov, rng=np.random.default_rng(4))
        guard = reg.live_guard(0, exclude=(19,))
        coalition = frozenset(
            nid for nid in ov.nodes if nid not in (0, 19, guard)
        )
        attack = PredecessorAttack(coalition=coalition)
        builder = make_builder(ov, histories, guard_registry=reg)
        series = ConnectionSeries(
            cid=1, initiator=0, responder=19, contract=Contract(50, 100),
            builder=builder,
        )
        for _ in range(10):
            path = series.run_round()
            if path is not None:
                attack.ingest_path(path)
        counts = attack.predecessor_counts(1)
        assert counts.get(0, 0) == 0  # the initiator is never observed
        assert attack.guess_initiator(1) == guard  # the guard absorbs it


class TestCidRotator:
    def test_wire_cid_changes_every_epoch(self):
        rot = CidRotator(series_cid=7, epoch=5)
        cids = [rot.wire_cid(r) for r in range(1, 16)]
        assert len(set(cids[:5])) == 1
        assert cids[4] != cids[5]
        assert len(set(cids)) == 3

    def test_epoch_round_restarts(self):
        rot = CidRotator(series_cid=7, epoch=5)
        assert [rot.epoch_round(r) for r in (1, 5, 6, 10, 11)] == [1, 5, 1, 5, 1]

    def test_namespaces_disjoint_across_series(self):
        a = CidRotator(series_cid=1, epoch=5)
        b = CidRotator(series_cid=2, epoch=5)
        a_cids = {a.wire_cid(r) for r in range(1, 100)}
        b_cids = {b.wire_cid(r) for r in range(1, 100)}
        assert not a_cids & b_cids

    def test_validation(self):
        with pytest.raises(ValueError):
            CidRotator(series_cid=1, epoch=0)
        rot = CidRotator(series_cid=1, epoch=5)
        with pytest.raises(ValueError):
            rot.wire_cid(0)

    def test_rotation_limits_history_attack_exposure(self):
        """A captured profile links only the current epoch's hops."""
        ov, histories = make_world(seed=9, n=16)
        builder = make_builder(ov, histories, seed=10)
        rotated = ConnectionSeries(
            cid=1, initiator=0, responder=15, contract=Contract(50, 100),
            builder=builder, cid_rotator=CidRotator(series_cid=1, epoch=3),
        )
        log = rotated.run(12)
        assert log.rounds_completed == 12
        # Pool ALL histories (a total-capture adversary) and ask how many
        # of the true series edges any single wire cid links together.
        attack = HistoryProfileAttack()
        for profile in histories.values():
            attack.capture(profile)
        per_epoch_edges = [
            len(attack.linked_edges(CidRotator(series_cid=1, epoch=3).wire_cid(r)))
            for r in (1, 4, 7, 10)
        ]
        all_true_edges = set()
        for p in log.paths:
            all_true_edges.update(p.edges)
        assert max(per_epoch_edges) < len(all_true_edges)

    def test_series_log_keeps_true_identifiers(self):
        ov, histories = make_world(seed=11)
        builder = make_builder(ov, histories, seed=12)
        series = ConnectionSeries(
            cid=42, initiator=0, responder=15, contract=Contract(50, 100),
            builder=builder, cid_rotator=CidRotator(series_cid=42, epoch=2),
        )
        series.run(6)
        assert all(p.cid == 42 for p in series.log.paths)
        assert [p.round_index for p in series.log.paths] == list(range(1, 7))
