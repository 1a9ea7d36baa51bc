"""Unit tests for the sharded scenario engine's building blocks.

The differential property suite (``tests/properties/
test_shard_determinism.py``) pins the end-to-end seed -> result
contract; these tests pin each mechanism in isolation: capacity
policing, ledger balance round-trips, engine lifecycle hygiene (no
leaked shared-memory segments, idempotent close) and the partition's
determinism.  The selectivity hit rows the planner gathers from are
pinned in ``tests/core/test_hit_rows.py``.
"""

import glob

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.network.overlay import Overlay
from repro.payment.ledger import Ledger
from repro.sim.shard import (
    ShardCapacityError,
    ShardConfig,
    ShardEngine,
)


def _overlay(n=24, degree=4, seed=9):
    overlay = Overlay(rng=np.random.default_rng(seed), degree=degree)
    overlay.bootstrap(n)
    return overlay


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestShardConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ShardConfig(n_shards=0)
        with pytest.raises(ValueError):
            ShardConfig(n_shards=65)
        with pytest.raises(ValueError):
            ShardConfig(slack=0.5)
        ShardConfig(n_shards=64, slack=1.0)  # edge values are fine

    def test_experiment_config_rejects_python_backend(self):
        with pytest.raises(ValueError, match="numpy"):
            ExperimentConfig(
                n_nodes=24, n_pairs=4, total_transmissions=16,
                backend="python", shard=ShardConfig(n_shards=2),
            )

    def test_experiment_config_rejects_position_aware(self):
        with pytest.raises(ValueError, match="position"):
            ExperimentConfig(
                n_nodes=24, n_pairs=4, total_transmissions=16,
                position_aware=True, shard=ShardConfig(n_shards=2),
            )

    def test_experiment_config_rejects_wrong_type(self):
        with pytest.raises(ValueError, match="ShardConfig"):
            ExperimentConfig(
                n_nodes=24, n_pairs=4, total_transmissions=16, shard=2,
            )


# ---------------------------------------------------------------------------
# Ledger balance round-trip
# ---------------------------------------------------------------------------


class TestLedgerBinding:
    def test_bind_unbind_round_trip_is_exact(self):
        ledger = Ledger()
        for owner, bal in ((0, 10.125), (3, 0.1), (7, 1e-9)):
            ledger.open_account(owner, bal)
        store = np.zeros(16, dtype=np.float64)
        ledger.bind_balances(store)
        assert store[0] == 10.125 and store[3] == 0.1
        ledger.transfer(0, 3, 2.5)  # arithmetic flows through the store
        assert ledger.balance(0) == 7.625
        ledger.unbind_balances()
        assert ledger.balance(0) == 7.625 and ledger.balance(3) == 2.6
        assert ledger.audit()
        # Accounts opened while bound land in the store; after unbind
        # they are plain attributes again.
        ledger.bind_balances(store)
        ledger.open_account(9, 4.0)
        assert store[9] == 4.0
        ledger.unbind_balances()
        assert ledger.balance(9) == 4.0

    def test_double_bind_rejected(self):
        ledger = Ledger()
        store = np.zeros(4, dtype=np.float64)
        ledger.bind_balances(store)
        with pytest.raises(RuntimeError):
            ledger.bind_balances(store)

    def test_owner_outside_store_rejected(self):
        ledger = Ledger()
        ledger.open_account(10, 1.0)
        with pytest.raises(ValueError, match="outside"):
            ledger.bind_balances(np.zeros(4, dtype=np.float64))


# ---------------------------------------------------------------------------
# Engine lifecycle
# ---------------------------------------------------------------------------


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


class TestEngineLifecycle:
    def test_start_close_leaves_no_segments(self):
        before = _shm_segments()
        overlay = _overlay()
        engine = ShardEngine(overlay, n_shards=2, seed=11)
        engine.start()
        assert _shm_segments() - before  # segments exist while running
        engine.close()
        engine.close()  # idempotent
        assert _shm_segments() <= before

    def test_close_detaches_object_layer(self):
        overlay = _overlay()
        engine = ShardEngine(overlay, n_shards=2, seed=11)
        engine.start()
        ledger = Ledger()
        ledger.open_account(0, 5.0)
        engine.bind_ledger(ledger)
        engine.close()
        # Every view must survive the unlink: balances and alpha.
        assert ledger.balance(0) == 5.0
        assert ledger.audit()
        float(engine.world.alpha_flat.sum())  # must not touch dead shm

    def test_worker_counters_absorbed(self):
        overlay = _overlay()
        engine = ShardEngine(overlay, n_shards=2, seed=11)
        engine.start()
        engine.close()
        assert isinstance(engine.worker_perf, dict)

    def test_capacity_error_on_growth(self):
        overlay = _overlay(n=24, degree=4)
        engine = ShardEngine(overlay, n_shards=2, seed=11, slack=1.0)
        engine.start()
        try:
            for _ in range(8):  # outgrow the zero-headroom reserve
                node = overlay.spawn_node()
                overlay.join(node.node_id, now=0.0)
                node.set_neighbors(
                    overlay.sample_peers(4, exclude={node.node_id})
                )
            with pytest.raises(ShardCapacityError):
                engine.world.ensure_fresh()
        finally:
            engine.close()

    def test_double_start_rejected(self):
        overlay = _overlay()
        engine = ShardEngine(overlay, n_shards=1, seed=3)
        engine.start()
        try:
            with pytest.raises(RuntimeError):
                engine.start()
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------


class TestPartition:
    def test_partition_covers_and_is_deterministic(self):
        overlay = _overlay(n=40, degree=5)
        for k in (1, 2, 3, 4, 7):
            engine = ShardEngine(overlay, n_shards=k, seed=1)
            world = engine.world
            world.ensure_fresh()
            n_children = int(world.st_child_edge.size)
            bounds = engine._partition(world.n_edges, n_children)
            assert bounds[0] == 0 and bounds[-1] == world.n_edges
            assert all(b1 >= b0 for b0, b1 in zip(bounds, bounds[1:]))
            assert bounds == engine._partition(world.n_edges, n_children)

    def test_ranges_never_straddle_a_state(self):
        overlay = _overlay(n=40, degree=5)
        engine = ShardEngine(overlay, n_shards=4, seed=1)
        world = engine.world
        world.ensure_fresh()
        bounds = engine._partition(world.n_edges, int(world.st_child_edge.size))
        # Child ranges derived from state bounds tile [0, n_children):
        # each shard owns exactly the children of its states.
        edges = [int(world.st_offsets[b]) for b in bounds]
        assert edges[0] == 0
        assert edges[-1] == int(world.st_offsets[world.n_edges])
