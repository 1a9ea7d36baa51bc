"""Property-based tests for the extension modules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anonymity import (
    prob_collaborator_on_path,
    prob_predecessor_is_initiator,
)
from repro.core.defenses import CidRotator
from repro.core.reputation import ReputationSystem
from repro.core.secure_path import keystream_xor
from repro.sim.engine import Environment
from repro.sim.resources import Store


# ---------------------------------------------------------------- crypto
@given(
    key=st.binary(min_size=1, max_size=64),
    data=st.binary(min_size=0, max_size=512),
)
def test_keystream_is_involution(key, data):
    assert keystream_xor(key, keystream_xor(key, data)) == data


@given(
    key=st.binary(min_size=16, max_size=32),
    data=st.binary(min_size=64, max_size=256),
)
def test_keystream_changes_data(key, data):
    # With >= 64 bytes of data, a SHA-256 keystream fixing it is absurd.
    assert keystream_xor(key, data) != data


# ---------------------------------------------------------------- anonymity
@given(
    n=st.integers(min_value=2, max_value=500),
    pf=st.floats(min_value=0.0, max_value=0.99),
)
def test_anonymity_probabilities_bounded(n, pf):
    for c in (0, 1, n - 1):
        if c >= n:
            continue
        p1 = prob_predecessor_is_initiator(n, c, pf)
        p2 = prob_collaborator_on_path(n, c, pf)
        assert 0.0 <= p1 <= 1.0
        assert 0.0 <= p2 <= 1.0


@given(
    n=st.integers(min_value=10, max_value=200),
    pf=st.floats(min_value=0.5, max_value=0.95),
)
def test_more_collaborators_never_help_anonymity(n, pf):
    values = [
        prob_predecessor_is_initiator(n, c, pf) for c in range(0, n - 1, max(1, n // 10))
    ]
    assert values == sorted(values)


# ---------------------------------------------------------------- defences
@given(
    series=st.integers(min_value=0, max_value=1000),
    epoch=st.integers(min_value=1, max_value=50),
    rounds=st.integers(min_value=1, max_value=300),
)
def test_cid_rotation_partition(series, epoch, rounds):
    """Rounds partition into epochs: same epoch -> same wire cid, and
    epoch-round cycles within [1, epoch]."""
    rot = CidRotator(series_cid=series, epoch=epoch)
    for r in range(1, rounds + 1):
        wc = rot.wire_cid(r)
        er = rot.epoch_round(r)
        assert 1 <= er <= epoch
        assert wc == rot.wire_cid(r - er + 1)  # first round of the epoch
    wire_cids = {rot.wire_cid(r) for r in range(1, rounds + 1)}
    assert len(wire_cids) == (rounds - 1) // epoch + 1


# ---------------------------------------------------------------- reputation
@given(
    feedback=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.booleans(),
            st.floats(min_value=0.0, max_value=10.0),
        ),
        max_size=60,
    )
)
def test_reputation_always_in_open_unit_interval(feedback):
    system = ReputationSystem()
    for node, positive, weight in feedback:
        if positive:
            system.record_success(node, weight)
        else:
            system.record_failure(node, weight)
    for node in range(6):
        assert 0.0 < system.reputation(node) < 1.0


# ---------------------------------------------------------------- resources
@settings(max_examples=50)
@given(
    ops=st.lists(st.sampled_from(["put", "get"]), max_size=50),
)
def test_store_conserves_items(ops):
    """Items out <= items in; queue length is consistent at every step."""
    env = Environment()
    store = Store(env)
    puts = gets_granted = 0
    pending_gets = []
    for i, op in enumerate(ops):
        if op == "put":
            store.put(i)
            puts += 1
        else:
            pending_gets.append(store.get())
    gets_granted = sum(1 for g in pending_gets if g.triggered)
    assert gets_granted <= puts
    assert len(store) == puts - gets_granted
