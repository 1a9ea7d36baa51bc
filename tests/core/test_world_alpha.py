"""Availability oracle for the ``WorldArrays`` session-time mirror.

``WorldArrays.alpha_flat`` is recomputed from a session-time matrix that
mirrors every node's per-neighbour counters.  Fast probe sweeps reach it
through the overlay's sweep listeners and are replayed as one matrix
add; every other change is found through the overlay's aggregate
``availability_version`` (O(1) while every node is wired) or, failing
that, the per-node version scan.  Whatever happened, after
``ensure_fresh`` each ``alpha_flat[e]`` must be bit-equal to
``node.availability_vector()[head(e)]`` — the scalar specification's
float.  The hypothesis test drives random mutation sequences; the named
tests pin the cases the mirror is easiest to get wrong.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import WorldArrays
from repro.network.node import PeerNode
from repro.network.overlay import Overlay
from repro.network.probing import fast_full_sweep
from repro.sim.monitoring import PERF

#: Probe periods with inexact binary expansions, so a credit applied in
#: a different order or summed differently would change the bits.
PERIODS = (0.1, 0.7, 1.0, 5.0, 7.3)

#: Counter mutations are weighted above topology ones: a neighbour-set
#: change rebuilds the whole world, which would hide a stale mirror.
OPS = (
    ("sweep",) * 4
    + ("credit", "credits", "write") * 2
    + ("zero_row", "add", "remove", "set", "join", "leave", "foreign")
)


def _overlay(n, degree, seed):
    overlay = Overlay(rng=np.random.default_rng(seed), degree=degree)
    overlay.bootstrap(n)
    return overlay


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _assert_alpha_exact(world):
    world.ensure_fresh()
    nodes = world.overlay.nodes
    assert sorted(world.nbr_lists) == sorted(nodes)
    for nid, lst in world.nbr_lists.items():
        av = nodes[nid].availability_vector()
        start = int(world.indptr[nid])
        got = world.alpha_flat[start : start + len(lst)]
        np.testing.assert_array_equal(_bits(got), _bits([av[j] for j in lst]))


def _foreign_node(overlay, now):
    """A node built outside ``Overlay.spawn_node``: its counter changes
    never reach the overlay's aggregate versions."""
    nid = max(overlay.nodes) + 1000
    overlay.nodes[nid] = PeerNode(node_id=nid, degree=overlay.degree)
    overlay.join(nid, now)
    return nid


def _heal(overlay, rng, now):
    """Rejoin every offline node and top every neighbour set up to its
    degree — the fast sweep's preconditions — like the slow probe path."""
    for nid, node in sorted(overlay.nodes.items()):
        if not node.is_online:
            overlay.join(nid, now)
    for nid, node in sorted(overlay.nodes.items()):
        while len(node.neighbors) < node.degree:
            pool = [
                i for i in sorted(overlay.nodes) if i != nid and i not in node.neighbors
            ]
            node.add_neighbor(int(rng.choice(pool)), initial_session_time=0.5)


def _apply(overlay, op, pick, value, now):
    rng = np.random.default_rng(pick)
    nodes = overlay.nodes
    node = nodes[int(rng.choice(sorted(nodes)))]
    nbrs = list(node.neighbors)
    if op == "sweep":
        _heal(overlay, rng, now)
        swept = fast_full_sweep(overlay, PERIODS[pick % len(PERIODS)], now)
        assert swept is not None
    elif op == "credit" and nbrs:
        node.credit_session_time(nbrs[pick % len(nbrs)], value, now=now)
    elif op == "credits" and nbrs:
        node.credit_session_times(nbrs[: 1 + pick % len(nbrs)], value, now=now)
    elif op == "write" and nbrs:
        node.neighbors[nbrs[pick % len(nbrs)]].session_time = value
    elif op == "zero_row":
        for view in node.neighbors.values():
            view.session_time = 0.0
    elif op == "add":
        pool = [i for i in nodes if i != node.node_id and i not in node.neighbors]
        if pool:
            node.add_neighbor(int(rng.choice(pool)), initial_session_time=value)
    elif op == "remove" and nbrs:
        node.remove_neighbor(nbrs[pick % len(nbrs)])
    elif op == "set":
        pool = [i for i in nodes if i != node.node_id]
        k = min(node.degree, len(pool))
        node.set_neighbors(int(i) for i in rng.choice(pool, size=k, replace=False))
    elif op == "join":
        offline = [nid for nid, n in nodes.items() if not n.is_online]
        if offline:
            overlay.join(offline[pick % len(offline)], now)
        else:
            overlay.join(overlay.spawn_node().node_id, now)
    elif op == "leave" and overlay.online_count() > 2 and node.is_online:
        overlay.leave(node.node_id, now)
    elif op == "foreign":
        _foreign_node(overlay, now)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=5, max_value=16),
    degree=st.integers(min_value=2, max_value=4),
    ops=st.lists(
        st.tuples(
            st.sampled_from(OPS),
            st.integers(min_value=0, max_value=1_000_000),
            st.sampled_from((0.0, 0.3, 1.0, 2.5, 60.0)),
            st.booleans(),
        ),
        max_size=30,
    ),
)
def test_alpha_matches_every_node_after_any_mutation(seed, n, degree, ops):
    overlay = _overlay(n, degree, seed)
    world = WorldArrays(overlay)
    _assert_alpha_exact(world)
    for step, (op, pick, value, refresh) in enumerate(ops, start=1):
        _apply(overlay, op, pick, value, now=float(step))
        if refresh:
            _assert_alpha_exact(world)
    _assert_alpha_exact(world)


def test_two_sweeps_with_a_credit_between():
    overlay = _overlay(12, 3, seed=4)
    world = WorldArrays(overlay)
    _assert_alpha_exact(world)
    node = overlay.nodes[5]
    assert fast_full_sweep(overlay, 0.7, 1.0) is not None
    node.credit_session_time(next(iter(node.neighbors)), 0.1)
    assert fast_full_sweep(overlay, 0.7, 2.0) is not None
    before = PERF.snapshot()
    _assert_alpha_exact(world)
    assert PERF.delta_since(before)["alpha_row_resyncs"] == 1


def test_sweeps_alone_take_no_row_resync():
    overlay = _overlay(30, 4, seed=2)
    world = WorldArrays(overlay)
    _assert_alpha_exact(world)
    before = PERF.snapshot()
    for now in range(1, 6):
        assert fast_full_sweep(overlay, 7.3, float(now)) is not None
        _assert_alpha_exact(world)
    delta = PERF.delta_since(before)
    assert delta["alpha_row_resyncs"] == 0
    assert delta["alpha_refreshes"] == 5
    assert delta["array_rebuilds"] == 0


def test_direct_write_between_refreshes_is_seen():
    overlay = _overlay(10, 3, seed=7)
    world = WorldArrays(overlay)
    _assert_alpha_exact(world)
    view = next(iter(overlay.nodes[3].neighbors.values()))
    view.session_time = 42.0
    _assert_alpha_exact(world)
    fast_full_sweep(overlay, 5.0, 1.0)
    view.session_time = 1.5
    _assert_alpha_exact(world)


def test_unwired_node_takes_the_scan_fallback():
    overlay = _overlay(10, 3, seed=11)
    world = WorldArrays(overlay)
    nid = _foreign_node(overlay, now=1.0)
    _assert_alpha_exact(world)
    assert not world._wired_snapshot
    assert fast_full_sweep(overlay, 0.1, 2.0) is not None
    # The foreign node's sweep bump never reached the aggregate, so only
    # the scan can tell this write apart from the mirrored sweep.
    foreign = overlay.nodes[nid]
    foreign.neighbors[next(iter(foreign.neighbors))].session_time = 9.0
    _assert_alpha_exact(world)


def test_node_wired_for_topology_only_takes_the_scan_fallback():
    overlay = _overlay(10, 3, seed=13)
    node = overlay.nodes[4]
    node._availability_listener = None
    world = WorldArrays(overlay)
    _assert_alpha_exact(world)
    assert not world._wired_snapshot
    node.neighbors[next(iter(node.neighbors))].session_time = 3.0
    _assert_alpha_exact(world)


def test_zero_total_row_reads_zero():
    overlay = _overlay(8, 3, seed=5)
    world = WorldArrays(overlay)
    fast_full_sweep(overlay, 1.0, 1.0)
    node = overlay.nodes[2]
    for view in node.neighbors.values():
        view.session_time = 0.0
    _assert_alpha_exact(world)
    start = int(world.indptr[2])
    assert not world.alpha_flat[start : start + len(node.neighbors)].any()


def test_dict_order_differs_from_sorted_order():
    overlay = _overlay(20, 4, seed=3)
    node = overlay.nodes[0]
    order = sorted(node.neighbors, reverse=True)
    node.set_neighbors(order)
    for rank, nid in enumerate(order):
        node.neighbors[nid].session_time = 0.1 * (rank + 1)
    assert list(node.neighbors) != sorted(node.neighbors)
    world = WorldArrays(overlay)
    _assert_alpha_exact(world)
    fast_full_sweep(overlay, 0.7, 1.0)
    _assert_alpha_exact(world)


def test_sweep_listener_does_not_keep_the_world_alive():
    overlay = _overlay(8, 3, seed=1)
    world = WorldArrays(overlay)
    world.ensure_fresh()
    del world
    assert fast_full_sweep(overlay, 1.0, 1.0) is not None
    assert overlay._sweep_listeners == []
