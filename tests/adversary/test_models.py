"""Tests for adversary node behaviours."""

import numpy as np
import pytest

from repro.adversary.models import make_availability_attackers
from repro.network.overlay import Overlay


def make_overlay(n=10, seed=0):
    ov = Overlay(rng=np.random.default_rng(seed), degree=3)
    ov.bootstrap(n)
    return ov


def test_attackers_created_from_good_nodes():
    ov = make_overlay()
    attackers = make_availability_attackers(ov, 3, np.random.default_rng(1))
    assert len(attackers) == 3
    for a in attackers:
        assert ov.nodes[a.node_id].malicious


def test_too_many_attackers_rejected():
    ov = make_overlay(n=4)
    with pytest.raises(ValueError):
        make_availability_attackers(ov, 5, np.random.default_rng(1))


def test_always_on_attacker_gains_availability_weight():
    """An attacker that never churns accumulates probe counters, so
    availability-weighted routing increasingly prefers it."""
    from repro.network.probing import run_probe_round

    ov = make_overlay(n=6)
    observer = ov.nodes[0]
    target = observer.neighbor_ids()[0]
    other = observer.neighbor_ids()[1]
    rng = np.random.default_rng(2)
    # `other` flaps (leaves and rejoins), target stays online.
    for t in (5.0, 10.0, 15.0, 20.0):
        if t == 10.0:
            ov.leave(other, t - 1)
        if t == 15.0:
            ov.join(other, t - 1)
        run_probe_round(ov, 0, period=5.0, rng=rng, now=t)
    if target in observer.neighbors and other in observer.neighbors:
        assert observer.availability(target) > observer.availability(other)
    else:
        # `other` was replaced entirely; the attacker clearly dominates.
        assert observer.availability(target) > 0.25
