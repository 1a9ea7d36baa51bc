"""Differential determinism of the sharded scenario engine.

The sharded engine's whole contract is one property: for any world and
any shard count, seed -> result is bit-identical to the single-process
numpy path.  The coordinator runs every decision in the same order by
construction; the shard workers only execute range decompositions of
the SPNE level sweep, whose arithmetic is element-wise with
order-insensitive segment reductions — so equality here must be exact
(``==`` on floats), not approximate.  Hypothesis drives random small
worlds through every supported wrinkle the sharded path claims to
cover: both utility strategies, churn on and off, with and without a
bank.  A fixed-seed cell adds Sybil whitewashing, whose mid-run spawns
add history profiles after the run started.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.config import ChurnConfig, ExperimentConfig, SybilConfig
from repro.experiments.scenario import run_scenario
from repro.sim.shard import ShardConfig


def _fingerprint(result):
    """Everything downstream analysis consumes, exactly comparable."""
    paths = tuple(
        tuple(p.nodes) for log in result.series_logs for p in log.paths
    )
    return {
        "paths": paths,
        "payoffs": result.payoffs,
        "earnings": result.earnings,
        "costs": result.costs,
        "settlements": result.series_settlements,
        "degradation": result.degradation,
        "bank_audit_ok": result.bank_audit_ok,
    }


world_configs = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "n_nodes": st.integers(min_value=24, max_value=40),
        "n_pairs": st.integers(min_value=3, max_value=6),
        "strategy": st.sampled_from(["utility-I", "utility-II"]),
        "lookahead": st.integers(min_value=2, max_value=3),
        "use_bank": st.booleans(),
        "churn_enabled": st.booleans(),
    }
)


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(world=world_configs)
def test_sharded_run_bit_identical_for_any_shard_count(world):
    kwargs = dict(
        seed=world["seed"],
        n_nodes=world["n_nodes"],
        n_pairs=world["n_pairs"],
        total_transmissions=world["n_pairs"] * 8,
        strategy=world["strategy"],
        lookahead=world["lookahead"],
        use_bank=world["use_bank"],
        churn=ChurnConfig(enabled=world["churn_enabled"]),
        backend="numpy",
    )
    reference = _fingerprint(run_scenario(ExperimentConfig(**kwargs)))
    for n_shards in (1, 2, 4):
        sharded = _fingerprint(
            run_scenario(
                ExperimentConfig(shard=ShardConfig(n_shards=n_shards), **kwargs)
            )
        )
        for field in reference:
            assert sharded[field] == reference[field], (
                f"shard count {n_shards} diverged on {field} "
                f"(world={world})"
            )


@pytest.mark.parametrize("seed", [2, 3])
def test_sharded_run_bit_identical_under_sybil_whitewash(seed):
    """Whitewashing spawns fresh identities mid-run, so their history
    profiles appear after the planner first bound the histories.  Their
    records must still reach the selectivity hit rows, or the sharded run
    silently diverges from the single-process one (these seeds did)."""
    kwargs = dict(
        seed=seed,
        n_nodes=30,
        n_pairs=8,
        total_transmissions=160,
        strategy="utility-II",
        lookahead=3,
        backend="numpy",
        sybil=SybilConfig(n_sybil=4, strategy_mode="whitewash", whitewash_every=20.0),
    )
    reference = _fingerprint(run_scenario(ExperimentConfig(**kwargs)))
    sharded = _fingerprint(
        run_scenario(ExperimentConfig(shard=ShardConfig(n_shards=2), **kwargs))
    )
    assert sharded == reference


@pytest.mark.parametrize("topology", ["small-world", "scale-free"])
def test_sharded_run_bit_identical_on_multi_block_worlds(topology):
    """Skewed out-degrees give each worker's state range several degree
    blocks, so a worker writes its plane rows block by block; the planes
    must still equal the single-process sweep."""
    kwargs = dict(
        seed=4,
        n_nodes=40,
        n_pairs=8,
        total_transmissions=120,
        strategy="utility-II",
        lookahead=3,
        use_bank=False,
        topology=topology,
        backend="numpy",
    )
    reference = _fingerprint(run_scenario(ExperimentConfig(**kwargs)))
    sharded = _fingerprint(
        run_scenario(ExperimentConfig(shard=ShardConfig(n_shards=3), **kwargs))
    )
    assert sharded == reference
