"""Tests for active probing (§2.3 availability estimation)."""

import numpy as np
import pytest

from repro.network.node import PeerNode
from repro.network.overlay import Overlay
from repro.network.probing import ActiveProber, fast_full_sweep, run_probe_round
from repro.sim.engine import Environment


def make_overlay(seed=0, n=8, degree=3):
    ov = Overlay(rng=np.random.default_rng(seed), degree=degree)
    ov.bootstrap(n)
    return ov


def test_live_neighbors_gain_period():
    ov = make_overlay()
    rng = np.random.default_rng(1)
    stats = run_probe_round(ov, 0, period=5.0, rng=rng, now=5.0)
    node = ov.nodes[0]
    assert stats["alive"] == len(node.neighbors)
    assert all(v.session_time == 5.0 for v in node.neighbors.values())
    assert all(v.last_seen == 5.0 for v in node.neighbors.values())


def test_dead_neighbor_replaced_with_partial_credit():
    ov = make_overlay()
    node = ov.nodes[0]
    victim = node.neighbor_ids()[0]
    ov.leave(victim, 1.0)
    rng = np.random.default_rng(2)
    stats = run_probe_round(ov, 0, period=5.0, rng=rng, now=5.0)
    assert stats["dead"] == 1
    assert stats["replaced"] == 1
    assert victim not in node.neighbors
    # Replacement initialised with rand(0, T) per the paper.
    new_ids = [i for i in node.neighbors if node.neighbors[i].session_time < 5.0]
    assert len(new_ids) == 1
    assert 0.0 <= node.neighbors[new_ids[0]].session_time < 5.0


def test_no_replacement_when_disabled():
    ov = make_overlay()
    node = ov.nodes[0]
    victim = node.neighbor_ids()[0]
    ov.leave(victim, 1.0)
    rng = np.random.default_rng(3)
    stats = run_probe_round(ov, 0, period=5.0, rng=rng, now=5.0, replace_dead=False)
    assert stats["replaced"] == 0
    assert len(node.neighbors) == 2


def test_replacement_skips_self_and_existing():
    ov = make_overlay(n=5, degree=3)
    node = ov.nodes[0]
    victim = node.neighbor_ids()[0]
    ov.leave(victim, 1.0)
    rng = np.random.default_rng(4)
    run_probe_round(ov, 0, period=5.0, rng=rng, now=5.0)
    assert 0 not in node.neighbors
    assert len(set(node.neighbors)) == len(node.neighbors)


def test_tops_up_underfull_neighbor_set():
    ov = make_overlay(n=10, degree=4)
    node = ov.nodes[0]
    # Manually shrink the set to 1.
    for nid in node.neighbor_ids()[1:]:
        node.remove_neighbor(nid)
    rng = np.random.default_rng(5)
    run_probe_round(ov, 0, period=5.0, rng=rng, now=5.0)
    assert len(node.neighbors) == 4


def test_availability_estimate_converges_with_probes():
    """A neighbour that is online 100% of probes dominates one that dies."""
    ov = make_overlay(n=6, degree=2)
    node = ov.nodes[0]
    stable, flaky = node.neighbor_ids()
    rng = np.random.default_rng(6)
    run_probe_round(ov, 0, period=5.0, rng=rng, now=5.0)
    ov.leave(flaky, 6.0)
    run_probe_round(ov, 0, period=5.0, rng=rng, now=10.0)
    run_probe_round(ov, 0, period=5.0, rng=rng, now=15.0)
    assert node.availability(stable) > 0.5


def test_invalid_period_rejected():
    ov = make_overlay()
    with pytest.raises(ValueError):
        run_probe_round(ov, 0, period=0.0, rng=np.random.default_rng(0), now=0.0)
    with pytest.raises(ValueError):
        ActiveProber(overlay=ov, period=-1.0, rng=np.random.default_rng(0))


def test_prober_process_runs_rounds():
    env = Environment()
    ov = make_overlay()
    prober = ActiveProber(overlay=ov, period=5.0, rng=np.random.default_rng(7))
    env.process(prober.run(env))
    env.run(until=26.0)
    assert prober.rounds_run == 5
    # All counters reflect 5 periods of liveness.
    assert all(
        v.session_time == pytest.approx(25.0)
        for v in ov.nodes[0].neighbors.values()
    )


# ---- fast_full_sweep's cached eligibility check ---------------------------
def _degree_total(ov):
    return sum(len(node.neighbors) for node in ov.nodes.values())


def test_cached_sweep_check_returns_the_scans_total():
    ov = make_overlay(n=12)
    first = fast_full_sweep(ov, 5.0, 5.0)
    assert ov._sweep_check is not None
    cached = fast_full_sweep(ov, 5.0, 10.0)
    assert cached == first
    assert cached["alive"] == _degree_total(ov) == 12 * 3
    # A neighbour set above its target degree keeps the sweep eligible;
    # the next sweep scans again and sees the new total.
    node = ov.nodes[0]
    node.add_neighbor(next(i for i in ov.nodes if i not in node.neighbors and i != 0))
    assert fast_full_sweep(ov, 5.0, 15.0)["alive"] == _degree_total(ov) == 12 * 3 + 1
    assert len(ov._sweep_log) == 3


def test_removed_neighbor_after_eligible_sweep_blocks_the_next_sweep():
    ov = make_overlay(n=12)
    assert fast_full_sweep(ov, 5.0, 5.0) is not None
    node = ov.nodes[4]
    node.remove_neighbor(node.neighbor_ids()[0])
    log, version = list(ov._sweep_log), ov.availability_version
    assert fast_full_sweep(ov, 5.0, 10.0) is None
    assert ov._sweep_log == log
    assert ov.availability_version == version


def test_unwired_node_forces_the_scan():
    ov = make_overlay(n=12)
    assert fast_full_sweep(ov, 5.0, 5.0) is not None
    # Put into ``nodes`` by hand: its neighbour-set changes bump no
    # overlay counter, so no result may be trusted past the next scan.
    stray = PeerNode(node_id=100, degree=3)
    ov.nodes[100] = stray
    ov._bring_online(stray, 6.0)
    stray.set_neighbors([0, 1, 2])
    assert fast_full_sweep(ov, 5.0, 10.0)["alive"] == 13 * 3
    assert ov._sweep_check is None
    stray.remove_neighbor(0)
    assert fast_full_sweep(ov, 5.0, 15.0) is None
