"""Tests for event primitives: Event and Timeout."""

import pytest

from repro.sim.events import Event, Timeout


def test_event_lifecycle(env):
    ev = env.event()
    assert not ev.triggered and not ev.processed
    ev.succeed(42)
    assert ev.triggered
    assert ev.ok
    assert ev.value == 42
    env.run()
    assert ev.processed


def test_event_cannot_trigger_twice(env):
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_value_before_trigger_raises(env):
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_fail_requires_exception(env):
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_failed_event_propagates_into_process(env):
    ev = env.event()
    caught = []

    def proc(env):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    ev.fail(ValueError("expected"))
    env.run()
    assert caught == ["expected"]


def test_timeout_carries_value(env):
    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    assert env.run(until=env.process(proc(env))) == "payload"
