"""Oracle tests for ``Overlay.bootstrap``.

Bootstrap wires the initial overlay from one sorted online array and draws
neighbour positions rather than neighbour ids.  The reference below is the
construction it replaces: a ``join`` per node (each wiring the newcomer
from the peers already online) followed by a ``sample_peers`` refill of
every neighbour set.  Both must leave the overlay and the generator in the
same state, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.overlay import Overlay

PRE_STATES = ("online", "left", "departed", "left-departed", "never")
#: Later than any transition ``populate`` records.
BOOT_TIME = 10.0


def reference_bootstrap(overlay, n, now, malicious_fraction, participation_cost):
    created = [
        overlay.spawn_node(participation_cost=participation_cost) for _ in range(n)
    ]
    n_bad = int(round(malicious_fraction * n))
    for node in overlay.rng.choice(created, size=n_bad, replace=False):
        node.malicious = True
    for node in created:
        overlay.join(node.node_id, now)
    wanted = min(overlay.degree, overlay.online_count() - 1)
    for node in created:
        node.set_neighbors(overlay.sample_peers(wanted, exclude={node.node_id}))
    return created


def populate(overlay, pre_states):
    """Members that exist before bootstrap, so its ids are not the only
    ones online and the online ids are not contiguous.  Transitions are
    spaced on one clock because the trace must be in time order."""
    ids = [overlay.spawn_node().node_id for _ in pre_states]
    for nid, state in zip(ids, pre_states):
        if state != "never":
            overlay.join(nid, 0.0)
    now = 0.0
    for nid, state in zip(ids, pre_states):
        if state in ("left", "left-departed"):
            now += 0.1
            overlay.leave(nid, now)
        if state in ("departed", "left-departed"):
            now += 0.1
            overlay.depart(nid, now)


def snapshot(overlay, created):
    return {
        "created": [node.node_id for node in created],
        "nodes": [
            (
                nid,
                list(node.neighbors),
                node.malicious,
                node.state,
                node.first_join_time,
            )
            for nid, node in overlay.nodes.items()
        ],
        "trace": [(e.time, e.kind, e.node_id) for e in overlay.trace.events],
        "online": overlay.online_ids(),
        "rng": overlay.rng.bit_generator.state,
    }


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=300),
    degree=st.integers(min_value=1, max_value=8),
    malicious_fraction=st.floats(min_value=0.0, max_value=1.0),
    pre_states=st.lists(st.sampled_from(PRE_STATES), max_size=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bootstrap_matches_join_then_sample_reference(
    n, degree, malicious_fraction, pre_states, seed
):
    def build(bootstrap):
        overlay = Overlay(rng=np.random.default_rng(seed), degree=degree)
        populate(overlay, pre_states)
        return snapshot(overlay, bootstrap(overlay))

    expected = build(
        lambda ov: reference_bootstrap(ov, n, BOOT_TIME, malicious_fraction, 2.0)
    )
    actual = build(
        lambda ov: ov.bootstrap(
            n, now=BOOT_TIME, malicious_fraction=malicious_fraction, participation_cost=2.0
        )
    )
    assert actual == expected


def _check_choice_equivalence(m, k, seed):
    """``choice(m, k)`` draws the positions ``choice(arr, k)`` picks from
    any array of length m, and leaves the generator in the same state."""
    arr = np.arange(m, dtype=np.int64) * 3 + 7
    by_array = np.random.default_rng(seed)
    by_count = np.random.default_rng(seed)
    picked = by_array.choice(arr, size=k, replace=False)
    idx = by_count.choice(m, size=k, replace=False)
    np.testing.assert_array_equal(arr[idx], picked)
    assert by_count.bit_generator.state == by_array.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=20_000),
    k_choice=st.sampled_from(["small", "all", "any"]),
    k_seed=st.integers(min_value=0, max_value=2**31),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_choice_of_count_matches_choice_of_array(m, k_choice, k_seed, seed):
    if k_choice == "small":
        k = min(m, 1 + k_seed % 8)
    elif k_choice == "all":
        k = m
    else:
        k = 1 + k_seed % m
    _check_choice_equivalence(m, k, seed)


def test_choice_of_count_matches_choice_of_array_at_the_bootstrap_sizes():
    for m in [*range(1, 60), 100, 251, 1000, 4999, 20_000]:
        for k in sorted({min(m, 1), min(m, 5), min(m, 8), m}):
            _check_choice_equivalence(m, k, seed=m * 31 + k)
