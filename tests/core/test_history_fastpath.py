"""Differential tests: the indexed ``HistoryProfile.selectivity`` must be
bit-identical to the naive linear scan over arbitrary workloads.

The oracle here is an *independent* reimplementation of the §2.3
definition (not the class's own ``selectivity_naive``, which is itself
checked against the oracle), driven through randomized operation
sequences that exercise every index-mutation path: record, per-cid
capacity eviction, and position-aware queries.
"""

import numpy as np
import pytest

from repro.core.history import HistoryProfile


def oracle_selectivity(records, cid, successor, round_index, predecessor=None):
    """Straight-from-the-paper reference: scan a plain list of
    (cid, round_index, predecessor, successor) tuples."""
    max_entries = round_index - 1
    if max_entries == 0:
        return 0.0
    hits = 0
    for r_cid, r_round, r_pred, r_succ in records:
        if r_cid != cid or r_round >= round_index or r_succ != successor:
            continue
        if predecessor is not None and r_pred != predecessor:
            continue
        hits += 1
    return min(1.0, hits / max_entries)


class ShadowStore:
    """Mirror of the profile's record/evict semantics on plain tuples, so
    the oracle sees exactly what the profile should hold."""

    def __init__(self, capacity=None):
        self.capacity = capacity
        self.by_cid = {}

    def record(self, cid, round_index, predecessor, successor):
        bucket = self.by_cid.setdefault(cid, [])
        bucket.append((cid, round_index, predecessor, successor))
        if self.capacity is not None and len(bucket) > self.capacity:
            del bucket[0 : len(bucket) - self.capacity]

    def all_records(self):
        return [rec for bucket in self.by_cid.values() for rec in bucket]


def random_workload(seed, capacity, n_ops=400):
    """Run a random op sequence against profile + shadow in lockstep and
    compare every selectivity query exactly (==, not approx)."""
    rng = np.random.default_rng(seed)
    profile = HistoryProfile(node_id=0, capacity=capacity)
    shadow = ShadowStore(capacity=capacity)
    cids = [1, 2, 3]
    nodes = list(range(1, 8))
    round_clock = {c: 1 for c in cids}
    queries = 0
    for _ in range(n_ops):
        op = rng.random()
        cid = int(rng.choice(cids))
        if op < 0.55:
            # Record a hop; rounds advance but may repeat (a node can hold
            # two positions in one round).
            rnd = round_clock[cid]
            if rng.random() < 0.7:
                round_clock[cid] += 1
            pred = int(rng.choice(nodes))
            succ = int(rng.choice(nodes))
            profile.record(cid, rnd, pred, succ)
            shadow.record(cid, rnd, pred, succ)
        else:
            rnd = int(rng.integers(1, round_clock[cid] + 3))
            succ = int(rng.choice(nodes))
            pred = int(rng.choice(nodes)) if rng.random() < 0.5 else None
            expect = oracle_selectivity(
                shadow.all_records(), cid, succ, rnd, predecessor=pred
            )
            got = profile.selectivity(cid, succ, rnd, predecessor=pred)
            naive = profile.selectivity_naive(cid, succ, rnd, predecessor=pred)
            assert got == expect, (seed, cid, succ, rnd, pred)
            assert naive == expect, (seed, cid, succ, rnd, pred)
            queries += 1
    return queries


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("capacity", [None, 1, 3, 10])
def test_indexed_selectivity_matches_oracle(seed, capacity):
    assert random_workload(seed, capacity) > 0


def test_eviction_drops_oldest_from_index():
    p = HistoryProfile(node_id=0, capacity=2)
    p.record(1, 1, predecessor=9, successor=2)
    p.record(1, 2, predecessor=9, successor=2)
    p.record(1, 3, predecessor=9, successor=3)  # evicts round 1
    # Only round 2 remains for successor 2.
    assert p.selectivity(1, 2, 4) == pytest.approx(1 / 3)
    assert p.selectivity(1, 2, 4) == p.selectivity_naive(1, 2, 4)
    assert len(p.records_for(1)) == 2


def test_position_aware_distinguishes_predecessors():
    p = HistoryProfile(node_id=0)
    p.record(1, 1, predecessor=4, successor=2)
    p.record(1, 2, predecessor=5, successor=2)
    assert p.selectivity(1, 2, 3) == 1.0
    assert p.selectivity(1, 2, 3, predecessor=4) == 0.5
    assert p.selectivity(1, 2, 3, predecessor=5) == 0.5
    assert p.selectivity(1, 2, 3, predecessor=6) == 0.0


def test_prebuilt_records_are_indexed():
    """A profile handed raw records (e.g. by a deserialiser) indexes them
    in __post_init__."""
    donor = HistoryProfile(node_id=0)
    donor.record(1, 1, predecessor=4, successor=2)
    donor.record(1, 2, predecessor=4, successor=2)
    clone = HistoryProfile(node_id=0, _records=dict(donor._records))
    assert clone.selectivity(1, 2, 3) == donor.selectivity(1, 2, 3) == 1.0
