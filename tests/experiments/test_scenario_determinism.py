"""Determinism regression for the routing fast path.

``run_scenario`` on a fixed seed must keep producing *exactly* these
metrics (golden values captured with the indexed-selectivity / cached-
availability / shared-SPNE-memo implementation).  Any change to the hot
path that silently alters routing decisions — stale derived state, a
memo-key collision, a reordered normalisation sum — shows up here as a
changed forwarder set or payoff, not as a quiet benchmark drift.

The goldens are enforced for **both scoring backends**: the scalar
reference and the batched numpy kernels (repro.core.kernels) must land
on the same bits, so every golden test is parametrized over
``BACKENDS``.  Under faults the two backends must also agree with each
other on several seeds: retries back off inside one round while crashes,
rejoins and probe credits move the world, and every decision on either
backend reads that live world.
"""

import pytest

from repro.core.kernels import WorldArrays
from repro.experiments.config import ExperimentConfig, FaultConfig
from repro.experiments.scenario import run_scenario

BASE = dict(seed=7, n_nodes=24, n_pairs=8, total_transmissions=120, use_bank=False)

BACKENDS = ("python", "numpy")

#: Seeds for the backend-agreement checks under faults (BASE's own seed
#: first); the chaos lane sweeps many more.
CHAOS_SEEDS = (7, 8, 9)

#: Golden metrics per strategy, captured at the fast-path introduction.
GOLDEN = {
    "utility-I": {
        "forwarder_set_sizes": [12, 17, 10, 13, 10, 12, 13, 8],
        "average_forwarder_set_size": 11.875,
        "average_good_payoff": 1298.158912677514,
        "average_good_series_payoff": 334.4736118326849,
        "average_path_quality": 0.3064561337355455,
        "rounds_completed": 120,
    },
    "utility-II": {
        "forwarder_set_sizes": [15, 11, 12, 6, 8, 11, 8, 7],
        "average_forwarder_set_size": 9.75,
        "average_good_payoff": 1339.7246042517122,
        "average_good_series_payoff": 417.6063663347876,
        "average_path_quality": 0.38684613997114,
        "rounds_completed": 120,
    },
}


def _config(strategy, backend="python"):
    extra = {"lookahead": 2} if strategy == "utility-II" else {}
    return ExperimentConfig(strategy=strategy, backend=backend, **BASE, **extra)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_fixed_seed_metrics_match_golden(strategy, backend):
    result = run_scenario(_config(strategy, backend))
    golden = GOLDEN[strategy]
    assert result.forwarder_set_sizes() == golden["forwarder_set_sizes"]
    assert result.average_forwarder_set_size() == golden["average_forwarder_set_size"]
    assert result.average_good_payoff() == pytest.approx(
        golden["average_good_payoff"], rel=0, abs=1e-9
    )
    assert result.average_good_series_payoff() == pytest.approx(
        golden["average_good_series_payoff"], rel=0, abs=1e-9
    )
    assert result.average_path_quality() == pytest.approx(
        golden["average_path_quality"], rel=0, abs=1e-12
    )
    assert (
        sum(s.rounds_completed for s in result.series_stats)
        == golden["rounds_completed"]
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_back_to_back_runs_identical(backend):
    """Caches and counters are per-run state: a second run in the same
    process must be bit-identical to the first (no leakage through the
    process-wide PERF counters or any module-level cache)."""
    cfg = _config("utility-II", backend)
    a, b = run_scenario(cfg), run_scenario(cfg)
    assert a.payoffs == b.payoffs
    assert a.forwarder_set_sizes() == b.forwarder_set_sizes()
    assert a.series_settlements == b.series_settlements
    assert a.perf_counters == b.perf_counters


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_zero_fault_plan_is_bit_identical_to_golden(strategy, backend):
    """An all-zero FaultConfig wires nothing: the goldens hold unchanged
    (the chaos harness consumes no randomness when every channel is off)."""
    result = run_scenario(
        _config(strategy, backend).with_overrides(faults=FaultConfig())
    )
    golden = GOLDEN[strategy]
    assert result.forwarder_set_sizes() == golden["forwarder_set_sizes"]
    assert result.average_good_payoff() == pytest.approx(
        golden["average_good_payoff"], rel=0, abs=1e-9
    )
    assert result.average_path_quality() == pytest.approx(
        golden["average_path_quality"], rel=0, abs=1e-12
    )
    assert result.degradation == {}


def test_same_seed_same_fault_plan_identical_results():
    """Determinism extends to chaos: same seed + same FaultPlan must
    reproduce every metric bit for bit, degradation counters included."""
    cfg = _config("utility-I").with_overrides(
        faults=FaultConfig.from_severity(0.25)
    )
    a, b = run_scenario(cfg), run_scenario(cfg)
    assert a.degradation == b.degradation
    assert a.payoffs == b.payoffs
    assert a.earnings == b.earnings
    assert a.forwarder_set_sizes() == b.forwarder_set_sizes()
    assert a.series_settlements == b.series_settlements
    assert a.total_reformations == b.total_reformations
    assert a.round_times == b.round_times
    # And the plan really did inject something, so the equality above is
    # not vacuous.
    assert a.degradation["hops_lost"] > 0


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_backends_agree_under_chaos(strategy, seed):
    """Mid-round crashes change liveness between formation attempts —
    the hardest case for the array world's invalidation.  Both backends
    must still land on identical trajectories."""
    faults = FaultConfig.from_severity(0.25)
    a = run_scenario(
        _config(strategy, "python").with_overrides(faults=faults, seed=seed)
    )
    b = run_scenario(
        _config(strategy, "numpy").with_overrides(faults=faults, seed=seed)
    )
    assert a.degradation == b.degradation
    assert a.payoffs == b.payoffs
    assert a.forwarder_set_sizes() == b.forwarder_set_sizes()
    assert a.series_settlements == b.series_settlements
    assert a.round_times == b.round_times
    assert a.degradation["forwarder_crashes"] > 0


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_backends_agree_under_chaos_position_aware(strategy, seed):
    """Chaos *and* §2.3 predecessor differentiation together: mid-round
    crashes invalidate liveness while the kernels score per-(state,
    predecessor) qualities.  The combination exercises every batched
    code path at once (position-aware base qualities, frontier resets,
    liveness refreshes) and must stay bit-identical to scalar."""
    faults = FaultConfig.from_severity(0.25)
    a = run_scenario(
        _config(strategy, "python").with_overrides(
            faults=faults, position_aware=True, seed=seed
        )
    )
    b = run_scenario(
        _config(strategy, "numpy").with_overrides(
            faults=faults, position_aware=True, seed=seed
        )
    )
    assert a.degradation == b.degradation
    assert a.payoffs == b.payoffs
    assert a.forwarder_set_sizes() == b.forwarder_set_sizes()
    assert a.series_settlements == b.series_settlements
    assert a.round_times == b.round_times
    assert a.degradation["forwarder_crashes"] > 0
    # The numpy lane really ran through the kernels (Model II always
    # does; degree-5 Model-I decisions stay scalar by design).
    if strategy == "utility-II":
        assert b.perf_counters["kernel_calls"] > 0


@pytest.mark.parametrize("topology", ["small-world", "scale-free"])
def test_backends_agree_on_multi_block_overlays(topology, monkeypatch):
    """Skewed out-degrees put the SPNE states in several degree blocks,
    a layout no benchmark workload reaches (their overlays are one block
    of width d).  Model II L3 on such a 40-node overlay must still land
    on the scalar specification's bits."""
    n_blocks = []
    build = WorldArrays._build_state_structure

    def counting_build(world):
        build(world)
        n_blocks.append(len(world.blocks))

    monkeypatch.setattr(WorldArrays, "_build_state_structure", counting_build)
    cfg = ExperimentConfig(
        seed=3,
        n_nodes=40,
        n_pairs=10,
        total_transmissions=200,
        use_bank=False,
        strategy="utility-II",
        lookahead=3,
        topology=topology,
    )
    a = run_scenario(cfg.with_overrides(backend="python"))
    b = run_scenario(cfg.with_overrides(backend="numpy"))
    assert max(n_blocks) > 1
    assert [log.paths for log in a.series_logs] == [log.paths for log in b.series_logs]
    assert a.payoffs == b.payoffs
    assert a.earnings == b.earnings
    assert a.series_settlements == b.series_settlements
    assert a.degradation == b.degradation


def test_numpy_default_resolves_and_batches(monkeypatch):
    """With REPRO_BACKEND unset and no explicit config, the scenario now
    runs on the numpy kernels — and still reproduces the golden
    trajectory (bit-identity is what makes the flip safe)."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    result = run_scenario(_config("utility-II", backend=None))
    golden = GOLDEN["utility-II"]
    assert result.forwarder_set_sizes() == golden["forwarder_set_sizes"]
    assert result.average_good_payoff() == pytest.approx(
        golden["average_good_payoff"], rel=0, abs=1e-9
    )
    assert result.perf_counters["kernel_calls"] > 0
    assert result.perf_counters["kernel_batch_elements"] > 0


def test_nonzero_plan_drives_degradation_counters():
    """Acceptance: a nonzero plan demonstrably causes reformations,
    retries and deferred settlements, all surfaced in ScenarioResult."""
    # Severity 0.35: at 0.3 this seed's trajectory never lands a
    # settlement inside the bank outage window, leaving bank_denials at 0.
    cfg = _config("utility-I").with_overrides(
        use_bank=True,
        faults=FaultConfig.from_severity(0.35),
    )
    result = run_scenario(cfg)
    d = result.degradation
    assert d["hops_lost"] > 0
    assert d["forwarder_crashes"] > 0
    assert d["probe_timeouts"] > 0
    assert d["reformations"] > 0
    assert d["path_retries"] > 0
    assert d["probe_retries"] > 0
    assert d["bank_denials"] > 0
    assert d["deferred_settlements"] > 0
    assert result.total_reformations >= d["reformations"]
    # Degradation never breaks the money: the ledger still audits.
    assert result.bank_audit_ok is True


def test_perf_counters_populated_and_consistent():
    # Lookahead 3: subtree reuse across candidates only arises at depth
    # >= 3 (the (node, predecessor, depth) memo key embeds the unique
    # parent edge, so a two-level expansion has nothing to share).
    # Pinned to the scalar backend: these counters describe the scalar
    # spec, which the numpy kernels bypass (they report through kernel_*
    # counters — see tests/core/test_kernels.py).
    cfg = ExperimentConfig(
        strategy="utility-II", lookahead=3, backend="python", **BASE
    )
    result = run_scenario(cfg)
    p = result.perf_counters
    assert p["selectivity_queries"] > 0
    assert p["edges_scored"] > 0
    assert p["spne_memo_hits"] > 0
    # The availability cache must be doing real work on the hot path.
    assert p["availability_cache_hits"] > p["availability_cache_misses"]
