"""Performance benchmark: simulator throughput.

Unlike the figure/table regenerators (which use ``pedantic`` single
runs), this benchmark times a standard scenario properly over several
rounds, so regressions in the routing hot path (edge scoring, probing,
heap churn) show up in CI history.  The workload is a mid-size slice of
the §3 configuration, timed under each routing strategy — ``utility-II``
is the one the fast-path caches (indexed selectivity, cached
availability, shared SPNE memo) accelerate the most.
"""

import os
import time

import pytest

from repro.core.kernels import default_backend
from repro.experiments.config import ChurnConfig, ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.sim.shard import ShardConfig

CFG = ExperimentConfig(
    seed=123,
    n_nodes=40,
    n_pairs=25,
    total_transmissions=500,
    strategy="utility-I",
    use_bank=False,  # time the simulation core, not RSA
)

#: Unpinned variants run on the resolved default — numpy since the flip —
#: so "utility-II-L3" now *is* the batched-kernel number the trajectory
#: gate watches.  The ``-python`` lane pins the scalar executable spec
#: for the ratio (informational, not gated in CI).
STRATEGY_OVERRIDES = {
    "utility-I": {},
    "utility-II": {"strategy": "utility-II", "lookahead": 2},
    "utility-II-L3": {"strategy": "utility-II", "lookahead": 3},
    "utility-II-L3-python": {
        "strategy": "utility-II", "lookahead": 3, "backend": "python",
    },
}


@pytest.mark.parametrize("variant", sorted(STRATEGY_OVERRIDES))
def test_perf_scenario_throughput(benchmark, variant):
    overrides = STRATEGY_OVERRIDES[variant]
    cfg = CFG.with_overrides(**overrides)
    result = benchmark(run_scenario, cfg)
    # Guard against silent workload shrinkage making the timing
    # meaningless: the run must actually have done the work.
    completed = sum(s.rounds_completed for s in result.series_stats)
    assert completed >= 0.9 * CFG.n_pairs * CFG.rounds_per_pair
    # And the intended scoring machinery must actually be in play.  On
    # the numpy lanes utility-II always batches through the kernels,
    # while utility-I's degree-5 candidate sets stay on the scalar path
    # by design (the Model I small-world crossover) — so the former must
    # tick kernel counters and the latter must not.
    backend = overrides.get("backend") or default_backend()
    strategy = overrides.get("strategy", CFG.strategy)
    if backend == "numpy" and strategy == "utility-II":
        assert result.perf_counters["kernel_calls"] > 0
    else:
        assert result.perf_counters["kernel_calls"] == 0
        assert result.perf_counters["selectivity_queries"] > 0


def test_perf_scenario_with_bank(benchmark):
    cfg = CFG.with_overrides(use_bank=True)
    result = benchmark.pedantic(run_scenario, args=(cfg,), rounds=3, iterations=1)
    assert result.bank_audit_ok


# ---------------------------------------------------------------------------
# Sharded engine at overlay scale
# ---------------------------------------------------------------------------

#: The utility-II L3 workload the sharded engine targets: a 5k-node
#: overlay.  The shard workers only run full-axis SPNE level sweeps,
#: and at this size the planner sweeps each decision's lookahead ball
#: instead, so what is left to compare is world refresh, quality rows
#: and the engine's own IPC.  Churn is disabled so the timing isolates
#: the routing hot path (the differential property suite covers churn
#: separately).
SHARD_CFG = ExperimentConfig(
    seed=123,
    n_nodes=5000,
    n_pairs=16,
    total_transmissions=160,
    strategy="utility-II",
    lookahead=3,
    use_bank=False,
    backend="numpy",
    churn=ChurnConfig(enabled=False),
)

_shard_reference = {}


def _fingerprint(result):
    paths = tuple(
        tuple(p.nodes) for log in result.series_logs for p in log.paths
    )
    return (paths, result.payoffs, result.earnings, result.degradation)


def _reference():
    """Single-process numpy run of the same workload, computed once per
    benchmark session: the bit-identity oracle and the speedup
    denominator."""
    if "result" not in _shard_reference:
        t0 = time.perf_counter()
        result = run_scenario(SHARD_CFG)
        _shard_reference["wall"] = time.perf_counter() - t0
        _shard_reference["result"] = _fingerprint(result)
    return _shard_reference


@pytest.mark.parametrize(
    "n_shards",
    [None, 1, 4],
    ids=["5k-nodes,no-shard", "5k-nodes,1-shards", "5k-nodes,4-shards"],
)
def test_perf_scenario_sharded(benchmark, n_shards):
    """Plain single-process numpy (``no-shard``) next to 1 and 4 shard
    workers on the same workload, so the sharded engine's cost or gain is
    read against the path it would replace."""
    cfg = SHARD_CFG
    if n_shards is not None:
        cfg = cfg.with_overrides(shard=ShardConfig(n_shards=n_shards))
    result = benchmark.pedantic(run_scenario, args=(cfg,), rounds=2, iterations=1)
    # Bit-identity is unconditional: any shard count must reproduce the
    # single-process numpy run exactly — paths, payoffs, earnings and
    # degradation counters.
    ref = _reference()
    assert _fingerprint(result) == ref["result"]
    # The batched kernels must be in play on both sides of the fence
    # (the absorbed worker counters land in the same PERF totals).
    assert result.perf_counters["kernel_calls"] > 0
    # The speedup over single-process numpy is recorded, not gated: above
    # the lookahead-ball threshold the workers have no level sweep left
    # to parallelise (see docs/PERFORMANCE.md).  No stats exist under
    # --benchmark-disable.
    if benchmark.stats is not None:
        benchmark.extra_info["speedup_vs_no_shard"] = (
            ref["wall"] / benchmark.stats.stats.min
        )
    benchmark.extra_info["usable_cores"] = len(os.sched_getaffinity(0))
