"""Tests for the churn processes."""

import numpy as np
import pytest

from repro.network.churn import ChurnModel, node_lifecycle
from repro.network.node import NodeState
from repro.network.overlay import Overlay
from repro.sim.distributions import Exponential, Pareto
from repro.sim.engine import Environment


def make_world(seed=0, n=10, degree=3):
    env = Environment()
    ov = Overlay(rng=np.random.default_rng(seed), degree=degree)
    ov.bootstrap(n)
    return env, ov


def fast_model(depart_prob=0.0):
    """Short sessions/offtimes so tests run quickly in sim time."""
    return ChurnModel(
        session=Pareto.with_median(10.0, shape=2.0),
        offtime=Exponential(mean=5.0),
        depart_prob=depart_prob,
    )


def online_share(ov, node_id, now):
    """Share of the node's lifetime (first join to ``now``) spent online,
    replayed from the overlay's membership trace."""
    online, start, first = 0.0, None, None
    for e in ov.trace.events:
        if e.node_id != node_id:
            continue
        if e.kind.value == "join":
            start = e.time
            first = e.time if first is None else first
        elif start is not None:
            online += e.time - start
            start = None
    if start is not None:
        online += now - start
    return online / (now - first)


def test_lifecycle_alternates_online_offline():
    env, ov = make_world()
    rng = np.random.default_rng(1)
    env.process(node_lifecycle(env, ov, 0, fast_model(), rng))
    env.run(until=500.0)
    # Multiple sessions happened and both on/off periods accumulated.
    joins = sum(
        1 for e in ov.trace.events if e.node_id == 0 and e.kind.value == "join"
    )
    assert joins >= 3
    assert 0.0 < online_share(ov, 0, env.now) < 1.0


def test_lifecycle_requires_online_node():
    env, ov = make_world()
    ov.leave(0, 0.0)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        # Generator raises at first step.
        gen = node_lifecycle(env, ov, 0, fast_model(), rng)
        next(gen)


def test_departure_is_permanent():
    env, ov = make_world()
    rng = np.random.default_rng(2)
    env.process(node_lifecycle(env, ov, 0, fast_model(depart_prob=1.0), rng))
    env.run(until=1000.0)
    assert ov.nodes[0].state is NodeState.DEPARTED
    # Exactly one session: departed at the end of the first one.
    joins = [e for e in ov.trace.events if e.node_id == 0 and e.kind.value == "join"]
    assert len(joins) == 1


def test_model_validation():
    with pytest.raises(ValueError):
        ChurnModel(depart_prob=1.5)


def test_availability_ratio_reflects_offtime():
    """Long off-times should reduce true availability below 1."""
    env, ov = make_world()
    rng = np.random.default_rng(7)
    model = ChurnModel(
        session=Pareto.with_median(10.0, shape=3.0),
        offtime=Exponential(mean=30.0),
        depart_prob=0.0,
    )
    env.process(node_lifecycle(env, ov, 0, model, rng))
    env.run(until=2000.0)
    a = online_share(ov, 0, env.now)
    assert 0.05 < a < 0.9


def test_session_scale_extends_sessions():
    """Incentive coupling hook: scaled sessions are measurably longer."""
    def run(scale_value):
        env, ov = make_world()
        rng = np.random.default_rng(11)
        model = ChurnModel(
            session=Pareto.with_median(10.0, shape=3.0),
            offtime=Exponential(mean=5.0),
            depart_prob=0.0,
        )
        env.process(
            node_lifecycle(env, ov, 0, model, rng, session_scale=lambda nid: scale_value)
        )
        env.run(until=2000.0)
        return online_share(ov, 0, env.now)

    assert run(4.0) > run(1.0)


def test_session_scale_validation():
    env, ov = make_world()
    rng = np.random.default_rng(12)
    proc = env.process(
        node_lifecycle(
            env, ov, 0, ChurnModel(), rng, session_scale=lambda nid: 0.0
        )
    )
    with pytest.raises(ValueError):
        env.run()
