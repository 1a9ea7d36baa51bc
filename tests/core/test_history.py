"""Tests for history profiles and selectivity (§2.3)."""

import pickle

import pytest

from repro.core.history import HistoryProfile, HistoryRecord


def test_record_and_retrieve():
    h = HistoryProfile(node_id=5)
    h.record(cid=1, round_index=1, predecessor=2, successor=7)
    recs = h.records_for(1)
    assert len(recs) == 1
    assert recs[0] == HistoryRecord(cid=1, round_index=1, predecessor=2, successor=7)


def test_selectivity_first_round_is_zero():
    h = HistoryProfile(5)
    assert h.selectivity(cid=1, successor=7, round_index=1) == 0.0


def test_selectivity_counts_matching_fraction():
    h = HistoryProfile(5)
    # Rounds 1-4: successor 7 chosen on rounds 1, 2, 4; successor 8 on round 3.
    for rnd, succ in [(1, 7), (2, 7), (3, 8), (4, 7)]:
        h.record(cid=1, round_index=rnd, predecessor=2, successor=succ)
    assert h.selectivity(cid=1, successor=7, round_index=5) == pytest.approx(3 / 4)
    assert h.selectivity(cid=1, successor=8, round_index=5) == pytest.approx(1 / 4)
    assert h.selectivity(cid=1, successor=9, round_index=5) == 0.0


def test_selectivity_never_peeks_at_future_rounds():
    h = HistoryProfile(5)
    h.record(cid=1, round_index=1, predecessor=2, successor=7)
    h.record(cid=1, round_index=3, predecessor=2, successor=7)
    # At round 2, only round 1's entry may count.
    assert h.selectivity(cid=1, successor=7, round_index=2) == pytest.approx(1.0)


def test_selectivity_is_per_cid():
    h = HistoryProfile(5)
    h.record(cid=1, round_index=1, predecessor=2, successor=7)
    assert h.selectivity(cid=2, successor=7, round_index=2) == 0.0


def test_predecessor_conditioning_distinguishes_positions():
    """A node at two positions on the same path scores them separately."""
    h = HistoryProfile(5)
    h.record(cid=1, round_index=1, predecessor=2, successor=7)  # position A
    h.record(cid=1, round_index=1, predecessor=9, successor=3)  # position B
    assert h.selectivity(1, successor=7, round_index=2, predecessor=2) == 1.0
    assert h.selectivity(1, successor=7, round_index=2, predecessor=9) == 0.0
    # Unconditioned: both entries visible.
    assert h.selectivity(1, successor=3, round_index=2) == 1.0


def test_selectivity_clamped_to_one():
    """Multiple same-round entries cannot push selectivity above 1."""
    h = HistoryProfile(5)
    h.record(cid=1, round_index=1, predecessor=2, successor=7)
    h.record(cid=1, round_index=1, predecessor=4, successor=7)
    assert h.selectivity(1, successor=7, round_index=2) == 1.0


def test_capacity_evicts_oldest():
    h = HistoryProfile(5, capacity=2)
    for rnd in (1, 2, 3):
        h.record(cid=1, round_index=rnd, predecessor=0, successor=rnd + 10)
    recs = h.records_for(1)
    assert [r.round_index for r in recs] == [2, 3]


def test_capacity_validation():
    with pytest.raises(ValueError):
        HistoryProfile(5, capacity=0)


def test_round_index_validation():
    h = HistoryProfile(5)
    with pytest.raises(ValueError):
        h.record(cid=1, round_index=0, predecessor=2, successor=3)
    with pytest.raises(ValueError):
        h.selectivity(cid=1, successor=3, round_index=0)


def test_observed_edges_leak_shape():
    h = HistoryProfile(5)
    h.record(cid=7, round_index=1, predecessor=2, successor=9)
    assert h.observed_edges() == [(7, 2, 9)]


def test_profile_is_slotted_and_round_trips_through_pickle():
    h = HistoryProfile(node_id=4, capacity=3)
    assert not hasattr(h, "__dict__")
    for rnd, succ in [(1, 7), (2, 7), (3, 8), (4, 7), (5, 9)]:
        h.record(cid=1, round_index=rnd, predecessor=2, successor=succ)
    h.record(cid=2, round_index=1, predecessor=0, successor=8)
    copy = pickle.loads(pickle.dumps(h))
    assert copy == h
    for cid in (1, 2, 3):
        for rnd in (1, 2, 4, 6):
            assert copy.selectivity_hits_block(cid, [7, 8, 9], rnd) == (
                h.selectivity_hits_block(cid, [7, 8, 9], rnd)
            )
