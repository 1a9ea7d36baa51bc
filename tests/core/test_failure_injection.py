"""Tests for message-loss failure injection in path establishment."""

import numpy as np
import pytest

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.history import HistoryProfile
from repro.core.path import PathFailure
from repro.core.protocol import ConnectionSeries, PathBuilder, TerminationPolicy
from repro.core.routing import UtilityModelI
from repro.network.overlay import Overlay
from repro.sim.faults import FaultInjector, FaultPlan


def make_builder(loss, seed=0, max_attempts=10):
    ov = Overlay(rng=np.random.default_rng(seed), degree=4)
    ov.bootstrap(14)
    return PathBuilder(
        overlay=ov,
        cost_model=CostModel(),
        histories={nid: HistoryProfile(nid) for nid in ov.nodes},
        rng=np.random.default_rng(seed + 1),
        good_strategy=UtilityModelI(),
        termination=TerminationPolicy.crowds(0.6),
        loss_probability=loss,
        max_attempts=max_attempts,
    )


def test_zero_loss_never_drops():
    b = make_builder(0.0)
    for rnd in range(1, 11):
        b.build_round(1, rnd, 0, 13, Contract(50, 100))
    assert b.hops_lost == 0
    assert b.reformations == 0


def test_loss_causes_reformations_but_rounds_recover():
    b = make_builder(0.25)
    completed = 0
    for rnd in range(1, 21):
        try:
            b.build_round(1, rnd, 0, 13, Contract(50, 100))
            completed += 1
        except PathFailure:
            pass
    assert b.hops_lost > 0
    assert b.reformations > 0
    assert completed >= 15  # retries absorb most losses


def test_certain_loss_fails_rounds():
    b = make_builder(0.9, max_attempts=3)
    failures = 0
    for rnd in range(1, 6):
        try:
            b.build_round(1, rnd, 0, 13, Contract(50, 100))
        except PathFailure as exc:
            failures += 1
            assert exc.reformations >= 1
    assert failures >= 3


def test_loss_rate_scales_reformations():
    low = make_builder(0.05, seed=3)
    high = make_builder(0.4, seed=3)
    for b in (low, high):
        for rnd in range(1, 16):
            try:
                b.build_round(1, rnd, 0, 13, Contract(50, 100))
            except PathFailure:
                pass
    assert high.reformations > low.reformations


def test_invalid_loss_probability_rejected():
    with pytest.raises(ValueError):
        make_builder(1.0)
    with pytest.raises(ValueError):
        make_builder(-0.1)


def test_series_accounts_loss_reformations():
    b = make_builder(0.3, seed=5)
    series = ConnectionSeries(
        cid=1, initiator=0, responder=13, contract=Contract(50, 100), builder=b
    )
    series.run(10)
    # Failures and reformations both surface in the series log.
    assert series.log.reformations + series.log.rounds_completed >= 10 - series.log.failed_rounds


# ---- unified injector & accumulated reformation counts -------------------


def test_loss_probability_is_alias_for_injector():
    """The legacy knob compiles to a single-channel FaultPlan drawing from
    the builder's own rng — bit-identical rounds either way."""
    legacy = make_builder(0.25, seed=11)
    unified = make_builder(0.0, seed=11)
    unified.fault_injector = FaultInjector(
        plan=FaultPlan(hop_loss=0.25), rng=unified.rng
    )

    def outcomes(b):
        out = []
        for rnd in range(1, 16):
            try:
                path = b.build_round(1, rnd, 0, 13, Contract(50, 100))
                out.append(path.forwarders)
            except PathFailure as exc:
                out.append(("FAIL", exc.reformations))
        return out

    assert outcomes(legacy) == outcomes(unified)
    assert legacy.hops_lost == unified.hops_lost
    assert legacy.reformations == unified.reformations


def test_exhaustion_reports_accumulated_reformations():
    """A round that exhausts max_attempts raises with the reformation
    count accumulated over ALL attempts — not the last attempt's count."""
    b = make_builder(0.95, seed=2, max_attempts=4)
    before = b.reformations
    with pytest.raises(PathFailure) as exc_info:
        b.build_round(1, 1, 0, 13, Contract(50, 100))
    # Every attempt ended in a reformation, and the exception carries all
    # of them (the builder's cumulative counter moved by the same amount).
    assert exc_info.value.reformations == 4
    assert b.reformations - before == 4


def test_retry_round_accumulates_reformations_across_failed_builds():
    """The recovery layer must not under-report: every failed retry of a
    round adds its reformations to the series log."""
    b = make_builder(0.0, seed=2, max_attempts=3)
    b.fault_injector = FaultInjector(
        # hop_loss ~1: every attempt of every build fails.
        plan=FaultPlan(hop_loss=0.999999), rng=np.random.default_rng(9)
    )
    series = ConnectionSeries(
        cid=1, initiator=0, responder=13, contract=Contract(50, 100), builder=b
    )
    assert series.run_round() is None
    for _ in range(2):
        assert series.retry_round() is None
    # (retries + 1) builds x max_attempts reformations each.
    assert series.log.reformations == (2 + 1) * 3
    assert series.log.failed_rounds == 1


def test_retry_round_recovers_after_transient_failure():
    b = make_builder(0.55, seed=8, max_attempts=2)
    series = ConnectionSeries(
        cid=1, initiator=0, responder=13, contract=Contract(50, 100), builder=b
    )
    path = series.run_round()
    retries = 0
    while path is None and retries < 8:
        path = series.retry_round()
        retries += 1
    assert path is not None and len(path.forwarders) >= 1
    # A success converts the earlier failure.
    assert series.log.failed_rounds == 0
    assert [p.round_index for p in series.log.paths] == [1]


def test_forwarder_crash_forces_reformation_and_reports_victim():
    crashed = []
    b = make_builder(0.0, seed=4, max_attempts=50)
    b.fault_injector = FaultInjector(
        plan=FaultPlan(forwarder_crash=0.3),
        rng=np.random.default_rng(5),
        on_crash=crashed.append,
    )
    for rnd in range(1, 11):
        try:
            b.build_round(1, rnd, 0, 13, Contract(50, 100))
        except PathFailure:
            pass
    stats = b.fault_injector.stats
    assert stats.forwarder_crashes > 0
    assert len(crashed) == stats.forwarder_crashes
    assert stats.reformations >= stats.forwarder_crashes
    # Victims are real nodes the builder selected as next hops.
    assert all(n in b.overlay.nodes for n in crashed)
