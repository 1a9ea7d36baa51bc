"""Tests for the discrete-event scheduler."""

import pytest

from repro.sim.engine import EmptySchedule, Environment
from repro.sim.events import Event, Timeout


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=5.5).now == 5.5


def test_timeout_advances_clock(env):
    env.timeout(10.0)
    env.run()
    assert env.now == 10.0


def test_events_processed_in_time_order(env):
    order = []
    for delay in (5.0, 1.0, 3.0):
        env.timeout(delay).callbacks.append(
            lambda e, d=delay: order.append(d)
        )
    env.run()
    assert order == [1.0, 3.0, 5.0]


def test_same_time_events_fifo(env):
    """Ties broken by insertion order — determinism guarantee."""
    order = []
    for tag in ("a", "b", "c"):
        env.timeout(1.0).callbacks.append(lambda e, t=tag: order.append(t))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_exactly(env):
    fired = []
    env.timeout(10.0).callbacks.append(lambda e: fired.append(True))
    env.run(until=5.0)
    assert env.now == 5.0
    assert not fired
    env.run(until=15.0)
    assert fired


def test_run_until_past_time_raises(env):
    env.timeout(5.0)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value(env):
    def proc(env):
        yield env.timeout(3.0)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"
    assert env.now == 3.0


def test_run_drains_queue_returns_none(env):
    env.timeout(1.0)
    env.timeout(2.0)
    assert env.run() is None
    assert env.now == 2.0


def test_run_until_unreached_event_raises(env):
    target = env.event()  # never triggered
    env.timeout(1.0)
    with pytest.raises(RuntimeError, match="queue drained"):
        env.run(until=target)


def test_step_raises_on_empty_queue(env):
    with pytest.raises(EmptySchedule):
        env.step()


def test_unhandled_failure_surfaces(env):
    ev = env.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_negative_timeout_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_nested_timeouts_interleave(env):
    trace = []

    def ticker(env, name, period, count):
        for _ in range(count):
            yield env.timeout(period)
            trace.append((env.now, name))

    env.process(ticker(env, "fast", 1.0, 3))
    env.process(ticker(env, "slow", 2.0, 2))
    env.run()
    # At t=2.0 the slow ticker fires first: its timeout was scheduled at
    # t=0, before fast's second timeout (scheduled at t=1) — FIFO by
    # scheduling time.
    assert trace == [
        (1.0, "fast"),
        (2.0, "slow"),
        (2.0, "fast"),
        (3.0, "fast"),
        (4.0, "slow"),
    ]
