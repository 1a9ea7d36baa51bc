"""Scheduler priority and ordering edge cases."""

import pytest

from repro.sim.engine import NORMAL, URGENT, Environment
from repro.sim.events import Event


def test_urgent_events_precede_normal_at_same_time():
    env = Environment()
    order = []
    normal = Event(env)
    normal._ok = True
    normal._value = "normal"
    urgent = Event(env)
    urgent._ok = True
    urgent._value = "urgent"
    normal.callbacks.append(lambda e: order.append(e.value))
    urgent.callbacks.append(lambda e: order.append(e.value))
    env.schedule(normal, priority=NORMAL, delay=5.0)
    env.schedule(urgent, priority=URGENT, delay=5.0)
    env.run()
    assert order == ["urgent", "normal"]


def test_run_until_boundary_excludes_later_events():
    """run(until=t) stops *at* t before same-time NORMAL events fire
    (the stop event is URGENT)."""
    env = Environment()
    fired = []
    env.timeout(5.0).callbacks.append(lambda e: fired.append("t5"))
    env.run(until=5.0)
    assert env.now == 5.0
    assert fired == []  # the urgent stop preempted the same-time timeout
    env.run()
    assert fired == ["t5"]


def test_schedule_in_past_not_possible_via_timeout():
    env = Environment()
    env.timeout(3.0)
    env.run()
    with pytest.raises(ValueError):
        env.timeout(-0.5)


def test_interleaved_processes_deterministic_across_runs():
    def world():
        env = Environment()
        order = []

        def proc(env, name, delays):
            for d in delays:
                yield env.timeout(d)
                order.append((env.now, name))

        env.process(proc(env, "a", [1.0, 1.0, 1.0]))
        env.process(proc(env, "b", [1.5, 1.5]))
        env.process(proc(env, "c", [3.0]))
        env.run()
        return order

    assert world() == world()


def test_many_events_heap_stress():
    env = Environment()
    seen = []
    for i in range(2000):
        env.timeout((i * 7919) % 101 / 10.0).callbacks.append(
            lambda e, i=i: seen.append(i)
        )
    env.run()
    assert len(seen) == 2000
    assert env.now == pytest.approx(10.0)
