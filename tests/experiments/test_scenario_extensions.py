"""Tests for scenario-level extensions: defences, incentive coupling,
intersection evaluation, topology selection."""

import numpy as np
import pytest

from repro.experiments.config import ChurnConfig, SMALL_CONFIG
from repro.experiments.scenario import run_scenario


def test_intersection_anonymity_fields():
    r = run_scenario(SMALL_CONFIG.with_overrides(seed=21))
    a = r.intersection_anonymity()
    assert set(a) == {"mean_anonymity_degree", "exposure_rate", "pairs_evaluated"}
    assert 0.0 <= a["mean_anonymity_degree"] <= 1.0
    assert 0.0 <= a["exposure_rate"] <= 1.0
    assert a["pairs_evaluated"] == SMALL_CONFIG.n_pairs


def test_round_times_recorded_per_series():
    r = run_scenario(SMALL_CONFIG.with_overrides(seed=21))
    assert set(r.round_times) == {s.cid for s in r.series_stats}
    for times in r.round_times.values():
        assert times == sorted(times)
        assert len(times) == SMALL_CONFIG.rounds_per_pair


def test_guard_scenario_pins_first_hops():
    r = run_scenario(SMALL_CONFIG.with_overrides(seed=22, use_guards=True))
    # Each series' completed paths share a small set of first forwarders
    # (the guard, plus fallbacks while it was offline).
    for log in r.series_logs:
        firsts = {p.forwarders[0] for p in log.paths if p.forwarders}
        if len(log.paths) >= 5:
            assert len(firsts) <= 3


def test_cid_rotation_scenario_runs_and_keeps_true_ids():
    r = run_scenario(SMALL_CONFIG.with_overrides(seed=23, cid_rotation_epoch=3))
    for log in r.series_logs:
        for p in log.paths:
            assert p.cid == log.cid
    assert r.bank_audit_ok


def test_incentive_coupling_raises_availability():
    heavy = dict(session_median=12.0, offtime_mean=12.0)
    base_cfg = SMALL_CONFIG.with_overrides(
        seed=24, churn=ChurnConfig(**heavy)
    )
    coupled_cfg = SMALL_CONFIG.with_overrides(
        seed=24, churn=ChurnConfig(incentive_coupling=6.0, **heavy)
    )
    base = run_scenario(base_cfg)
    coupled = run_scenario(coupled_cfg)

    def mean_availability(result):
        return float(
            np.mean(
                [
                    n.true_availability(result.sim_duration)
                    for n in result.overlay.good_nodes()
                ]
            )
        )

    assert mean_availability(coupled) > mean_availability(base)


def test_coupling_config_validation():
    with pytest.raises(ValueError):
        ChurnConfig(incentive_coupling=-1.0)


def test_topology_scenario_runs():
    r = run_scenario(SMALL_CONFIG.with_overrides(seed=25, topology="small-world"))
    assert r.series_stats
    with pytest.raises(ValueError):
        SMALL_CONFIG.with_overrides(topology="moebius")


def test_gossip_discovery_scenario():
    """The fully decentralised discovery backend sustains the workload."""
    r = run_scenario(SMALL_CONFIG.with_overrides(seed=26, discovery="gossip"))
    completed = sum(s.rounds_completed for s in r.series_stats)
    assert completed > 0.8 * SMALL_CONFIG.n_pairs * SMALL_CONFIG.rounds_per_pair
    assert r.bank_audit_ok
    with pytest.raises(ValueError):
        SMALL_CONFIG.with_overrides(discovery="dns")


def test_gossip_and_oracle_modes_diverge_but_agree_qualitatively():
    oracle = run_scenario(SMALL_CONFIG.with_overrides(seed=27, discovery="oracle"))
    gossip = run_scenario(SMALL_CONFIG.with_overrides(seed=27, discovery="gossip"))
    # Different replacement choices...
    # ...but the same macroscopic behaviour (within 25%).
    assert gossip.average_forwarder_set_size() == pytest.approx(
        oracle.average_forwarder_set_size(), rel=0.25
    )


def test_route_validation_scenario():
    """With validate_routes on, every honest round's confirmation passes
    initiator-side cryptographic validation."""
    r = run_scenario(SMALL_CONFIG.with_overrides(seed=28, validate_routes=True))
    assert r.routes_validated > 0
    assert r.routes_invalid == 0
    completed = sum(s.rounds_completed for s in r.series_stats)
    # Validated + repeat-forwarder fallbacks account for every round.
    assert r.routes_validated <= completed


def test_temporal_forwarding_collects_latencies():
    r = run_scenario(
        SMALL_CONFIG.with_overrides(seed=29, temporal_forwarding=True)
    )
    completed = sum(s.rounds_completed for s in r.series_stats)
    assert len(r.round_latencies) == completed
    for payload, round_trip in r.round_latencies:
        assert 0 < payload < round_trip
    assert r.mean_payload_latency() > 0


def test_temporal_mode_off_has_no_latencies():
    r = run_scenario(SMALL_CONFIG.with_overrides(seed=29))
    assert r.round_latencies == []
    with pytest.raises(ValueError):
        r.mean_payload_latency()


def test_temporal_mode_preserves_routing_outcomes_approximately():
    """Transfers consume time, shifting round instants slightly, but the
    macroscopic mechanism metrics stay in the same regime."""
    base = run_scenario(SMALL_CONFIG.with_overrides(seed=30))
    temporal = run_scenario(
        SMALL_CONFIG.with_overrides(seed=30, temporal_forwarding=True)
    )
    assert temporal.average_forwarder_set_size() == pytest.approx(
        base.average_forwarder_set_size(), rel=0.35
    )
