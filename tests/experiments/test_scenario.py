"""Tests for end-to-end scenario runs (small scale)."""

import numpy as np
import pytest

from repro.core.protocol import HOP_TTL
from repro.experiments.config import SMALL_CONFIG
from repro.experiments.scenario import run_scenario


@pytest.fixture(scope="module")
def result():
    return run_scenario(SMALL_CONFIG.with_overrides(seed=42))


def test_all_series_attempted(result):
    cfg = result.config
    assert len(result.series_stats) == cfg.n_pairs
    for s in result.series_stats:
        assert s.rounds_completed + s.failed_rounds == cfg.rounds_per_pair


def test_settlements_recorded_per_series(result):
    assert len(result.series_settlements) == result.config.n_pairs


def test_earnings_match_settlements(result):
    total_settled = sum(
        sum(s.values()) for s in result.series_settlements.values()
    )
    assert sum(result.earnings.values()) == pytest.approx(total_settled)


def test_payoffs_are_earnings_minus_costs(result):
    for nid, payoff in result.payoffs.items():
        expected = result.earnings.get(nid, 0.0) - result.costs.get(nid, 0.0)
        assert payoff == pytest.approx(expected)


def test_bank_audit_passes(result):
    assert result.bank_audit_ok is True


def test_node_partition(result):
    assert result.good_node_ids.isdisjoint(result.malicious_node_ids)
    n_initial = result.config.n_nodes
    assert len(result.good_node_ids) + len(result.malicious_node_ids) >= n_initial


def test_reproducible():
    a = run_scenario(SMALL_CONFIG.with_overrides(seed=7))
    b = run_scenario(SMALL_CONFIG.with_overrides(seed=7))
    assert a.payoffs == b.payoffs
    assert a.average_forwarder_set_size() == b.average_forwarder_set_size()
    assert a.total_reformations == b.total_reformations


def test_different_seeds_differ():
    a = run_scenario(SMALL_CONFIG.with_overrides(seed=1))
    b = run_scenario(SMALL_CONFIG.with_overrides(seed=2))
    assert a.payoffs != b.payoffs


def test_no_bank_mode():
    r = run_scenario(SMALL_CONFIG.with_overrides(seed=5, use_bank=False))
    assert r.bank_audit_ok is None
    assert r.earnings  # settlements still tracked


def test_no_churn_mode():
    from repro.experiments.config import ChurnConfig

    r = run_scenario(
        SMALL_CONFIG.with_overrides(seed=5, churn=ChurnConfig(enabled=False))
    )
    # Without churn, nobody ever leaves.
    leaves = [e for e in r.overlay.trace.events if e.kind.value != "join"]
    assert leaves == []


def test_ttl_termination_mode():
    r = run_scenario(SMALL_CONFIG.with_overrides(seed=5, termination="ttl"))
    for log in r.series_logs:
        for p in log.paths:
            assert p.length == HOP_TTL


def test_good_series_payoffs_match_formula():
    r = run_scenario(SMALL_CONFIG.with_overrides(seed=11))
    flat = r.good_series_payoffs()
    assert len(flat) == sum(
        1
        for s in r.series_settlements.values()
        for n in s
        if n in r.good_node_ids
    )
    assert all(p > 0 for p in flat)


def test_random_strategy_has_bigger_forwarder_sets():
    util = run_scenario(SMALL_CONFIG.with_overrides(seed=9, strategy="utility-I"))
    rand = run_scenario(SMALL_CONFIG.with_overrides(seed=9, strategy="random"))
    assert util.average_forwarder_set_size() < rand.average_forwarder_set_size()


def test_summary_contains_key_fields(result):
    text = result.summary()
    assert "strategy=utility-I" in text
    assert "avg forwarder set" in text
    assert "bank audit: True" in text
