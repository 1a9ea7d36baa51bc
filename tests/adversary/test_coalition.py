"""Coalition observer edge cases: round pooling, merging, visibility.

The pooled intersection attack is only as sound as its bookkeeping —
these tests pin the corner cases the scenario engine relies on: an
empty round set yields *no* attack (not a vacuous one), full-coalition
observation degenerates to the omniscient §2.1 attack, and observations
made through since-departed members still count (the coalition pooled
them while the member was alive).
"""

import pytest

from repro.adversary.intersection import CoalitionObserver, IntersectionAttack
from repro.core.path import Path
from repro.network.trace import NetworkTrace


def churny_trace():
    """Initiator 1 always online; 2-5 churn at known instants."""
    t = NetworkTrace()
    for nid in (1, 2, 3, 4, 5, 6, 7):
        t.join(0.0, nid)
    t.leave(10.0, 2)
    t.join(12.0, 2)
    t.leave(20.0, 3)
    t.leave(30.0, 4)
    return t


def coalition_of(member_ids, trace):
    return CoalitionObserver(trace=trace, members=frozenset(member_ids))


def path_at(round_index, forwarders, cid=1, initiator=1, responder=7):
    return Path(
        cid=cid,
        round_index=round_index,
        initiator=initiator,
        responder=responder,
        forwarders=tuple(forwarders),
    )


# ------------------------------------------------------------ empty rounds
def test_empty_round_set_attack_returns_none():
    """A coalition that never observed the series learns nothing — the
    attack must report None, not a full-population candidate set."""
    observer = coalition_of([5], churny_trace())
    assert observer.attack(1, initiator=1) is None


def test_unobserving_member_on_no_path_stays_empty():
    observer = coalition_of([6], churny_trace())
    # Member 6 never sits on the path: nothing pooled.
    assert observer.observe_path(path_at(1, [2, 3]), 5.0) is False
    assert observer.attack(1, initiator=1) is None


def test_empty_coalition_observes_nothing():
    observer = CoalitionObserver(trace=churny_trace(), members=frozenset())
    assert observer.observe_path(path_at(1, [2, 3]), 5.0) is False
    assert observer.attack(1, initiator=1) is None


# --------------------------------------------------- full-coalition limit
def test_full_coalition_matches_omniscient_attack():
    """When every forwarder ever used is in the coalition, the pooled
    attack sees every round — identical to the single omniscient
    observer of §2.1."""
    trace = churny_trace()
    rounds = [
        (path_at(1, [2, 3]), 5.0),
        (path_at(2, [4]), 15.0),
        (path_at(3, [5, 2]), 25.0),
    ]
    observer = coalition_of([2, 3, 4, 5], trace)
    for path, time in rounds:
        assert observer.observe_path(path, time) is True
    pooled = observer.attack(1, initiator=1)

    omniscient = IntersectionAttack(trace=trace, initiator=1)
    reference = omniscient.observe_rounds([t for _, t in rounds])

    assert pooled.final_candidates == reference.final_candidates
    assert pooled.observations == reference.observations


def test_responder_membership_grants_visibility():
    """A malicious responder terminates the path, so it observes every
    round even with no compromised forwarders."""
    observer = coalition_of([7], churny_trace())
    assert observer.observe_path(path_at(1, [2, 3]), 5.0) is True
    assert observer.attack(1, initiator=1).observations == 1


# --------------------------------------------- departed-member observations
def test_departed_member_observations_are_retained():
    """Observations pooled while a member was online survive its
    departure — the coalition already exfiltrated them."""
    trace = churny_trace()
    observer = coalition_of([3], trace)
    assert observer.observe_path(path_at(1, [3]), 5.0) is True
    trace.depart(40.0, 3)
    # The attack still uses the pre-departure observation.
    res = observer.attack(1, initiator=1)
    assert res is not None
    assert res.observations == 1
    assert 1 in res.final_candidates


def test_observation_after_member_departs_still_pools():
    """Path membership, not liveness, is what grants visibility: the
    observer does not second-guess the trace (a path through a node is
    proof it was reachable)."""
    observer = coalition_of([3], churny_trace())
    assert observer.observe_path(path_at(1, [3]), 25.0) is True
    assert observer.attack(1, initiator=1).observations == 1


# ----------------------------------------------------------------- pooling
def test_duplicate_times_pool_once():
    observer = coalition_of([2, 3], churny_trace())
    observer.observe_path(path_at(1, [2, 3]), 5.0)
    observer.observe_path(path_at(1, [3, 2]), 5.0)
    assert observer.attack(1, initiator=1).observations == 1


def test_series_cid_override_pools_under_target_series():
    """Under cid rotation the wire cid differs per round; the attack
    pools by the underlying series id."""
    observer = coalition_of([2], churny_trace())
    observer.observe_path(path_at(1, [2], cid=901), 5.0, series_cid=1)
    observer.observe_path(path_at(2, [2], cid=902), 15.0, series_cid=1)
    assert observer.attack(1, initiator=1).observations == 2
    assert observer.attack(901, initiator=1) is None


def test_excluded_coalition_members_never_candidates():
    trace = churny_trace()
    observer = coalition_of([2, 3], trace)
    observer.observe_path(path_at(1, [2, 3]), 5.0)
    res = observer.attack(1, initiator=1, excluded=frozenset({2, 3, 7}))
    assert res.final_candidates.isdisjoint({2, 3, 7})


def test_attack_degree_bounds():
    observer = coalition_of([2], churny_trace())
    observer.observe_path(path_at(1, [2]), 5.0)
    res = observer.attack(1, initiator=1)
    assert 0.0 <= res.anonymity_degree <= 1.0
    with pytest.raises(ValueError):
        path_at(1, [7])  # responder can never forward
