"""Chaos smoke lane: randomized fault-severity sweeps over full scenarios.

Excluded from tier-1 (see the ``chaos`` marker in pyproject.toml); run
with ``pytest -m chaos``.  Each case runs a complete simulation under a
random fault plan and asserts the system degrades *gracefully*: progress
is still made, money still audits, and every invariant the fast suites
pin holds at scenario scale.
"""

import numpy as np
import pytest

from repro.core import routing
from repro.experiments.config import ExperimentConfig, FaultConfig
from repro.experiments.scenario import run_scenario

pytestmark = pytest.mark.chaos

BASE = dict(n_nodes=24, n_pairs=8, total_transmissions=96)

#: Population of tier-1's backend-agreement checks under faults
#: (tests/experiments/test_scenario_determinism.py), swept here over
#: many more seeds.
AGREEMENT_BASE = dict(
    n_nodes=24, n_pairs=8, total_transmissions=120, use_bank=False
)


def chaos_config(seed, severity, **overrides):
    return ExperimentConfig(
        seed=seed,
        faults=FaultConfig.from_severity(severity),
        **{**BASE, **overrides},
    )


@pytest.mark.parametrize("seed", range(5))
def test_random_severity_sweep_survives_and_audits(seed):
    severity = float(np.random.default_rng(seed).uniform(0.05, 0.6))
    result = run_scenario(chaos_config(seed, severity, use_bank=True))
    # Progress despite chaos: at least half the workload completed.
    completed = sum(s.rounds_completed for s in result.series_stats)
    attempted = sum(
        s.rounds_completed + s.failed_rounds for s in result.series_stats
    )
    assert attempted == 96
    assert completed > attempted // 2
    # The injector visibly did something at this severity.
    assert result.degradation["hops_lost"] + result.degradation[
        "forwarder_crashes"
    ] + result.degradation["probe_timeouts"] > 0
    # Money conservation survives any injected outage/retry interleaving.
    assert result.bank_audit_ok is True
    # Recovery accounting is internally consistent.
    d = result.degradation
    assert d["rounds_abandoned"] <= attempted - completed
    assert d["settlements_failed"] <= d["deferred_settlements"]


@pytest.mark.parametrize("severity", [0.1, 0.3, 0.5])
def test_degradation_scales_with_severity(severity):
    result = run_scenario(chaos_config(seed=11, severity=severity, use_bank=False))
    baseline = run_scenario(
        ExperimentConfig(seed=11, use_bank=False, **BASE)
    )
    # Chaos costs throughput, never correctness: fewer or equal completed
    # rounds, but the run terminates and accounts for every round.
    assert (
        sum(s.rounds_completed + s.failed_rounds for s in result.series_stats)
        == 96
    )
    assert sum(s.rounds_completed for s in result.series_stats) <= sum(
        s.rounds_completed for s in baseline.series_stats
    )
    assert result.degradation["reformations"] > 0


def test_severe_chaos_with_temporal_transport_and_outages():
    cfg = ExperimentConfig(
        seed=3,
        use_bank=True,
        temporal_forwarding=True,
        faults=FaultConfig(
            payload_drop=0.3,
            confirmation_drop=0.2,
            message_delay=0.05,
            hop_loss=0.3,
            forwarder_crash=0.1,
            crash_downtime=10.0,
            probe_timeout=0.4,
            bank_outages=((30.0, 90.0), (150.0, 180.0)),
        ),
        **BASE,
    )
    result = run_scenario(cfg)
    d = result.degradation
    assert d["messages_dropped"] > 0
    assert d["rounds_dropped"] > 0
    assert d["messages_delayed"] > 0
    assert result.bank_audit_ok is True
    # Dropped rounds still settle (forwarders did the work), so some
    # settlements happened even with the bank down a third of the time.
    assert any(result.series_settlements.values())


@pytest.mark.parametrize("seed", range(1, 31))
@pytest.mark.parametrize("strategy", ["utility-I", "utility-II"])
def test_backends_agree_under_chaos_sweep(strategy, seed, monkeypatch):
    """Retries back off inside one round while crashes, rejoins and probe
    credits move the world; every decision on either backend reads that
    live world, so the scalar spec and the kernels follow one trajectory
    on every seed."""
    # Model I kernels on every candidate set, as ``kernel_crossover=False``
    # would: otherwise degree-5 decisions never leave the scalar loop.
    monkeypatch.setattr(routing, "MODEL1_KERNEL_MIN_CANDIDATES", 0)
    extra = {"lookahead": 2} if strategy == "utility-II" else {}
    a, b = (
        run_scenario(
            ExperimentConfig(
                seed=seed,
                strategy=strategy,
                backend=backend,
                faults=FaultConfig.from_severity(0.25),
                **AGREEMENT_BASE,
                **extra,
            )
        )
        for backend in ("python", "numpy")
    )
    assert a.degradation == b.degradation
    assert a.payoffs == b.payoffs
    assert a.forwarder_set_sizes() == b.forwarder_set_sizes()
    assert a.series_settlements == b.series_settlements
    assert a.round_times == b.round_times
    assert b.perf_counters["kernel_calls"] > 0
