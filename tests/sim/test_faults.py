"""Unit tests for repro.sim.faults: plans, injector draws, retry policy."""

import numpy as np
import pytest

from repro.sim.faults import (
    BankUnavailable,
    FaultError,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)


def make_injector(plan, seed=0, **kwargs):
    return FaultInjector(plan=plan, rng=np.random.default_rng(seed), **kwargs)


# ---- FaultPlan -----------------------------------------------------------


def test_zero_plan_is_identity():
    assert FaultPlan.none().is_zero()
    assert FaultPlan(drop={"payload": 0.0}, delay={"payload": 0.0}).is_zero()
    assert not FaultPlan(hop_loss=0.1).is_zero()
    assert not FaultPlan(bank_outages=((0.0, 1.0),)).is_zero()


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(hop_loss=1.0)
    with pytest.raises(ValueError):
        FaultPlan(drop={"payload": -0.1})
    with pytest.raises(ValueError):
        FaultPlan(delay={"payload": -1.0})
    with pytest.raises(ValueError):
        FaultPlan(bank_outages=((5.0, 5.0),))
    with pytest.raises(ValueError):
        FaultPlan(crash_downtime=-1.0)


def test_uniform_plan_scales_all_channels():
    plan = FaultPlan.uniform(0.4)
    assert plan.drop["payload"] == 0.2
    assert plan.hop_loss == 0.4
    assert plan.forwarder_crash == 0.1
    assert plan.probe_timeout == 0.2
    assert FaultPlan.uniform(0.0).is_zero()


def test_bank_outage_windows_are_half_open():
    plan = FaultPlan(bank_outages=((10.0, 20.0), (30.0, 40.0)))
    assert plan.bank_available_at(9.999)
    assert not plan.bank_available_at(10.0)
    assert not plan.bank_available_at(19.999)
    assert plan.bank_available_at(20.0)
    assert not plan.bank_available_at(35.0)


# ---- FaultInjector -------------------------------------------------------


def test_zero_plan_consumes_no_randomness():
    """Every query on the identity plan must short-circuit before the
    generator — that is the zero-fault bit-identity guarantee."""
    inj = make_injector(FaultPlan.none(), seed=42)
    before = inj.rng.bit_generator.state
    assert not inj.drop_message("payload")
    assert inj.message_delay("payload") == 0.0
    assert not inj.lose_hop()
    assert not inj.crash_forwarder(3)
    assert not inj.probe_times_out()
    assert inj.bank_available()
    assert inj.rng.bit_generator.state == before
    assert all(v == 0 for v in inj.stats.snapshot().values())


def test_draws_match_probabilities_roughly():
    inj = make_injector(FaultPlan(hop_loss=0.3), seed=1)
    hits = sum(inj.lose_hop() for _ in range(5000))
    assert 0.25 < hits / 5000 < 0.35
    assert inj.stats.hops_lost == hits


def test_crash_invokes_callback_only_with_node_id():
    crashed = []
    inj = make_injector(
        FaultPlan(forwarder_crash=0.999999), seed=1, on_crash=crashed.append
    )
    assert inj.crash_forwarder(7)
    assert crashed == [7]
    # Anonymous crash query: counted, but no callback.
    assert inj.crash_forwarder(None)
    assert crashed == [7]
    assert inj.stats.forwarder_crashes == 2


def test_bank_availability_uses_clock_and_counts_denials():
    t = {"now": 0.0}
    inj = make_injector(
        FaultPlan(bank_outages=((10.0, 20.0),)), clock=lambda: t["now"]
    )
    assert inj.bank_available()
    t["now"] = 15.0
    assert not inj.bank_available()
    assert not inj.bank_available()
    assert inj.stats.bank_denials == 2
    t["now"] = 20.0
    assert inj.bank_available()  # window closed
    assert inj.stats.bank_denials == 2


def test_message_delay_draws_exponential():
    inj = make_injector(FaultPlan(delay={"payload": 2.0}), seed=3)
    draws = [inj.message_delay("payload") for _ in range(2000)]
    assert all(d >= 0.0 for d in draws)
    assert 1.8 < float(np.mean(draws)) < 2.2
    assert inj.message_delay("confirmation") == 0.0  # channel off
    assert inj.stats.messages_delayed == 2000


# ---- RetryPolicy ---------------------------------------------------------


def test_backoff_schedule_caps_at_max_delay():
    policy = RetryPolicy(
        max_retries=6, base_delay=1.0, multiplier=2.0, max_delay=10.0, jitter=0.0
    )
    assert [policy.delay(i) for i in range(policy.max_retries)] == [
        1.0, 2.0, 4.0, 8.0, 10.0, 10.0
    ]


def test_jitter_is_bounded_and_deterministic():
    policy = RetryPolicy(base_delay=4.0, jitter=0.25)
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    a = [policy.delay(0, rng_a) for _ in range(100)]
    b = [policy.delay(0, rng_b) for _ in range(100)]
    assert a == b  # same seed, same jitter sequence
    assert all(3.0 <= d <= 5.0 for d in a)
    assert len(set(a)) > 1  # jitter actually varies
    # Without a generator the delay is the deterministic midpoint.
    assert policy.delay(0) == 4.0


def test_call_retries_then_succeeds():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise FaultError("transient")
        return "ok"

    slept = []
    policy = RetryPolicy(max_retries=5, base_delay=1.0, jitter=0.0)
    assert policy.call(flaky, sleep=slept.append) == "ok"
    assert len(attempts) == 3
    assert slept == [1.0, 2.0]


def test_call_exhausts_and_reraises():
    policy = RetryPolicy(max_retries=2, jitter=0.0)
    seen = []

    def always_fails():
        raise BankUnavailable("down")

    with pytest.raises(BankUnavailable):
        policy.call(always_fails, on_retry=lambda i, exc: seen.append(i))
    assert seen == [0, 1]


def test_call_does_not_catch_unrelated_exceptions():
    policy = RetryPolicy(max_retries=5)
    calls = []

    def boom():
        calls.append(1)
        raise RuntimeError("not a fault")

    with pytest.raises(RuntimeError):
        policy.call(boom)
    assert len(calls) == 1


def test_none_policy_runs_exactly_once():
    calls = []

    def fail():
        calls.append(1)
        raise FaultError("x")

    with pytest.raises(FaultError):
        RetryPolicy.none().call(fail)
    assert len(calls) == 1
