"""Tests for the Sybil-attack experiment and the colony lifecycle."""

import numpy as np
import pytest

from repro.adversary.sybil import (
    SYBIL_STRATEGIES,
    SybilColony,
    run_sybil_experiment,
)
from repro.core.history import HistoryProfile
from repro.network.node import NodeState
from repro.network.overlay import Overlay


def test_parameter_validation():
    with pytest.raises(ValueError):
        run_sybil_experiment(n_sybil=0)
    with pytest.raises(ValueError):
        run_sybil_experiment(n_honest=2)


def test_experiment_runs_and_is_deterministic():
    a = run_sybil_experiment(seed=1, n_pairs=4, rounds=6)
    b = run_sybil_experiment(seed=1, n_pairs=4, rounds=6)
    assert a == b
    assert a.n_sybil == 8
    assert a.honest_income > 0


def test_utility_routing_starves_late_sybils():
    """The availability estimator + selectivity incumbency means fresh
    identities earn (almost) nothing under utility routing."""
    results = [
        run_sybil_experiment(strategy="utility-I", seed=s, n_pairs=6, rounds=10)
        for s in range(3)
    ]
    mean_amp = sum(r.amplification for r in results) / len(results)
    assert mean_amp < 0.3
    assert all(r.amplification <= 1.0 for r in results)


def make_colony(join_subsidy=0.0, n_honest=6):
    overlay = Overlay(rng=np.random.default_rng(0), degree=4)
    overlay.bootstrap(n_honest)
    histories = {nid: HistoryProfile(nid) for nid in overlay.nodes}
    return SybilColony(
        overlay=overlay, histories=histories, join_subsidy=join_subsidy
    )


# ------------------------------------------------------ identity lifecycle
def test_spawn_registers_identity_everywhere():
    colony = make_colony()
    nid = colony.spawn(now=1.0)
    assert nid in colony.overlay.nodes
    assert nid in colony.histories
    assert colony.active == [nid]
    assert colony.all_ids == [nid]
    assert colony.generations[nid] == 0
    assert colony.identities_used == 1


def test_spawn_cohort_counts_and_validation():
    colony = make_colony()
    ids = colony.spawn_cohort(3, now=0.0)
    assert len(ids) == 3
    assert colony.identities_used == 3
    with pytest.raises(ValueError):
        colony.spawn_cohort(0, now=0.0)


def test_whitewash_rotates_oldest_identity():
    colony = make_colony()
    first, second = colony.spawn_cohort(2, now=0.0)
    retired, fresh = colony.whitewash(now=5.0)
    assert retired == first
    assert fresh not in (first, second)
    assert colony.active == [second, fresh]
    # Retired identity stays on the books for value accounting...
    assert retired in colony.all_ids
    assert colony.generations[fresh] == 1
    # ...but is gone from the overlay for good.
    assert colony.overlay.nodes[retired].state is NodeState.DEPARTED
    assert colony.whitewashes == 1


def test_whitewash_without_active_identity_raises():
    colony = make_colony()
    with pytest.raises(ValueError):
        colony.whitewash(now=0.0)


def test_retire_unknown_identity_raises():
    colony = make_colony()
    colony.spawn(now=0.0)
    with pytest.raises(ValueError):
        colony.retire(999, now=1.0)


def test_retire_is_idempotent_on_departed_overlay_node():
    """Retiring an identity whose overlay node already departed (e.g.
    killed by chaos) must not double-depart."""
    colony = make_colony()
    nid = colony.spawn(now=0.0)
    colony.overlay.depart(nid, 1.0)
    colony.retire(nid, now=2.0)
    assert colony.active == []


def test_subsidy_accrues_per_spawn():
    colony = make_colony(join_subsidy=10.0)
    colony.spawn_cohort(2, now=0.0)
    colony.whitewash(now=5.0)
    assert colony.subsidy_collected == pytest.approx(30.0)
    assert colony.identities_used == 3


def test_negative_subsidy_rejected():
    with pytest.raises(ValueError):
        make_colony(join_subsidy=-1.0)


# ------------------------------------------------------ whitewash economics
def test_whitewash_mode_rotates_identities():
    r = run_sybil_experiment(
        seed=3, n_pairs=4, rounds=10, strategy_mode="whitewash",
        whitewash_every=3, join_subsidy=5.0,
    )
    assert r.strategy_mode == "whitewash"
    assert r.identities_used == r.n_sybil + 3  # rounds 3, 6, 9
    assert r.subsidy_collected == pytest.approx(r.identities_used * 5.0)
    assert set(r.income_by_identity) and len(r.income_by_identity) == r.identities_used


def test_unknown_strategy_mode_rejected():
    assert "whitewash" in SYBIL_STRATEGIES
    with pytest.raises(ValueError):
        run_sybil_experiment(strategy_mode="mimic")
    with pytest.raises(ValueError):
        run_sybil_experiment(strategy_mode="whitewash", whitewash_every=0)


def test_bank_settlement_audits_clean():
    r = run_sybil_experiment(
        seed=2, n_pairs=4, rounds=6, use_bank=True,
        strategy_mode="whitewash", whitewash_every=2, join_subsidy=7.0,
    )
    assert r.bank_audit_ok is True
    # Income-by-identity decomposes the colony total exactly.
    assert sum(r.income_by_identity.values()) == pytest.approx(r.colony_income)


def test_random_routing_leaks_more_to_sybils():
    utility = [
        run_sybil_experiment(strategy="utility-I", seed=s, n_pairs=6, rounds=10)
        for s in range(3)
    ]
    random_ = [
        run_sybil_experiment(strategy="random", seed=s, n_pairs=6, rounds=10)
        for s in range(3)
    ]
    mean = lambda rs: sum(r.amplification for r in rs) / len(rs)
    assert mean(random_) > mean(utility)
