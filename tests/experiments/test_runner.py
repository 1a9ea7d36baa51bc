"""Tests for the sweep runner."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    metric_average_good_payoff,
    metric_forwarder_set_size,
    metric_routing_efficiency,
    pooled_good_payoffs,
    run_replicates,
    sweep,
)

TINY = ExperimentConfig(
    n_nodes=16, n_pairs=4, total_transmissions=24, use_bank=False
)


def test_run_replicates_vary_only_seed():
    results = run_replicates(TINY, n_seeds=3, seed0=10)
    assert [r.config.seed for r in results] == [10, 11, 12]
    assert all(r.config.n_nodes == 16 for r in results)


def test_run_replicates_validation():
    with pytest.raises(ValueError):
        run_replicates(TINY, n_seeds=0)


def test_sweep_structure():
    res = sweep(
        TINY,
        "malicious_fraction",
        [0.1, 0.5],
        metric_forwarder_set_size,
        metric_name="set_size",
        n_seeds=2,
    )
    assert res.xs() == [0.1, 0.5]
    assert len(res.means()) == 2
    assert len(res.cis()) == 2
    assert all(len(p.samples) == 2 for p in res.points)


def test_pooled_good_payoffs_concatenates():
    results = run_replicates(TINY, n_seeds=2)
    pooled = pooled_good_payoffs(results)
    assert len(pooled) == sum(len(r.good_payoffs()) for r in results)


def test_metrics_return_floats():
    r = run_replicates(TINY, n_seeds=1)[0]
    for metric in (
        metric_average_good_payoff,
        metric_forwarder_set_size,
        metric_routing_efficiency,
    ):
        assert isinstance(metric(r), float)


def test_routing_efficiency_positive_on_real_run():
    r = run_replicates(TINY, n_seeds=1)[0]
    assert metric_routing_efficiency(r) > 0


def test_parallel_replicates_identical_to_serial():
    """Replicates are embarrassingly parallel: process-pool results must
    be bit-identical to serial ones."""
    serial = run_replicates(TINY, n_seeds=3, seed0=5, n_jobs=1)
    parallel = run_replicates(TINY, n_seeds=3, seed0=5, n_jobs=2)
    for a, b in zip(serial, parallel):
        assert a.payoffs == b.payoffs
        assert a.total_reformations == b.total_reformations
        assert a.average_forwarder_set_size() == b.average_forwarder_set_size()


def test_parallel_jobs_validation():
    with pytest.raises(ValueError):
        run_replicates(TINY, n_seeds=2, n_jobs=0)


def test_repro_jobs_env_default(monkeypatch):
    """REPRO_JOBS is the default pool width for replicate sweeps."""
    from repro.experiments.runner import default_n_jobs

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_n_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_n_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError):
        default_n_jobs()
    monkeypatch.setenv("REPRO_JOBS", "abc")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_n_jobs()


def test_repro_jobs_env_drives_run_replicates(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    parallel = run_replicates(TINY, n_seeds=2, seed0=5)  # n_jobs from env
    serial = run_replicates(TINY, n_seeds=2, seed0=5, n_jobs=1)
    for a, b in zip(serial, parallel):
        assert a.payoffs == b.payoffs
