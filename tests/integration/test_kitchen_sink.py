"""Everything-on integration test: all optional features composed.

Features interact (gossip discovery feeds probing, guards change first
hops, rotation changes history keys, validation reads paths, temporal
mode stretches round timing, loss injects reformations, coupling reads
earnings, the bank settles it all).  This test turns everything on at
once and checks the cross-feature invariants still hold.
"""

import pytest

from repro.experiments.config import ChurnConfig, ExperimentConfig
from repro.experiments.scenario import run_scenario

KITCHEN_SINK = ExperimentConfig(
    seed=99,
    n_nodes=24,
    n_pairs=6,
    total_transmissions=60,
    malicious_fraction=0.15,
    strategy="utility-II",
    lookahead=2,
    adversary_mode="mimic",
    topology="small-world",
    discovery="gossip",
    use_guards=True,
    cid_rotation_epoch=3,
    validate_routes=True,
    temporal_forwarding=True,
    loss_probability=0.05,
    churn=ChurnConfig(
        session_median=40.0,
        offtime_mean=20.0,
        incentive_coupling=2.0,
    ),
    use_bank=True,
)


@pytest.fixture(scope="module")
def result():
    return run_scenario(KITCHEN_SINK)


def test_workload_completes(result):
    completed = sum(s.rounds_completed for s in result.series_stats)
    total = KITCHEN_SINK.n_pairs * KITCHEN_SINK.rounds_per_pair
    assert completed > 0.7 * total


def test_books_balance(result):
    assert result.bank_audit_ok


def test_validation_ran_and_passed(result):
    assert result.routes_validated > 0
    assert result.routes_invalid == 0


def test_latencies_collected(result):
    assert result.round_latencies
    assert all(payload > 0 for payload, _rt in result.round_latencies)


def test_series_logs_use_true_cids(result):
    for log in result.series_logs:
        assert all(p.cid == log.cid for p in log.paths)


def test_attack_summaries_computable(result):
    inter = result.intersection_anonymity()
    assert 0.0 <= inter["mean_anonymity_degree"] <= 1.0
    pred = result.predecessor_attack_summary()
    assert 0.0 <= pred["identification_rate"] <= 1.0


def test_settlements_match_logs(result):
    for log in result.series_logs:
        settlement = result.series_settlements[log.cid]
        union = log.union_forwarder_set()
        assert set(settlement) == set(union)


def test_fully_deterministic():
    a = run_scenario(KITCHEN_SINK)
    b = run_scenario(KITCHEN_SINK)
    assert a.payoffs == b.payoffs
    assert a.round_latencies == b.round_latencies
    assert a.routes_validated == b.routes_validated
    assert a.total_reformations == b.total_reformations
