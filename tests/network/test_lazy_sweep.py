"""Lazy fast-sweep credits against the eager per-view loop.

``fast_full_sweep`` only appends ``(period, now)`` to the overlay's sweep
log; each node applies the entries it has not yet applied before its
views are next read or written.  These tests run the same operations on
two overlays built from one seed: one swept lazily, one swept by an
oracle that credits every view at once, as the sweep did before it was
made lazy.  Whatever the interleaving of sweeps, credits, neighbour-set
changes and churn, every observable — each view's ``session_time`` and
``last_seen``, ``availability_vector()``, the version counters and
``WorldArrays.alpha_flat`` — must be the same on both, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import WorldArrays
from repro.network.overlay import Overlay
from repro.network.probing import fast_full_sweep

#: Probe periods with inexact binary expansions, so a credit applied in
#: a different order or a different number of times changes the bits.
PERIODS = (0.1, 0.7, 1.0, 5.0, 7.3)

OPS = (
    ("sweep",) * 5
    + ("credit", "credits", "write")
    + ("add", "remove", "set", "join", "leave")
)


def eager_sweep(overlay, period, now):
    """The oracle: credit every view of every node now, invalidate each
    node once, then tell the sweep listeners."""
    nodes = overlay.nodes
    if not nodes or overlay.online_count() != len(nodes):
        return None
    if any(len(node.neighbors) < node.degree for node in nodes.values()):
        return None
    for node in nodes.values():
        for view in node.neighbors.values():
            view._session_time += period
            view._last_seen = now
        node._invalidate_availability()
    overlay.notify_fast_sweep(period)
    return True


def _pair(n, degree, seed):
    sides = []
    for _ in range(2):
        overlay = Overlay(rng=np.random.default_rng(seed), degree=degree)
        overlay.bootstrap(n)
        sides.append((overlay, WorldArrays(overlay)))
    return sides


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _observe(overlay, world):
    """Everything an observer can read, as exact bit patterns."""
    nodes = {}
    for nid, node in sorted(overlay.nodes.items()):
        # Each read must bring the node up to date on its own, so the
        # first read differs from node to node.
        reads = {
            "alpha": node.availability_vector,
            "version": lambda: node.availability_version,
            "views": lambda: [
                (v.node_id, _bits([v.session_time])[0], v.last_seen)
                for v in node.neighbors.values()
            ],
        }
        keys = tuple(reads)
        k = nid % len(keys)
        seen = {key: reads[key]() for key in keys[k:] + keys[:k]}
        alpha = seen["alpha"]
        nodes[nid] = (
            seen["views"],
            list(alpha),
            _bits(list(alpha.values())),
            seen["version"],
            node.neighbors_version,
        )
    world.ensure_fresh()
    return nodes, overlay.availability_version, _bits(world.alpha_flat)


def _heal(overlay, rng, now):
    """Rejoin every offline node and top each neighbour set up to its
    degree, so the next sweep's preconditions hold."""
    for nid, node in sorted(overlay.nodes.items()):
        if not node.is_online:
            overlay.join(nid, now)
    for nid, node in sorted(overlay.nodes.items()):
        while len(node.neighbors) < node.degree:
            pool = [
                i for i in sorted(overlay.nodes) if i != nid and i not in node.neighbors
            ]
            node.add_neighbor(int(rng.choice(pool)), initial_session_time=0.5)


def _apply(overlay, sweep, op, pick, value, now):
    """Apply one operation; every choice is drawn from ``pick`` and the
    overlay's own (identical) state, so both sides do the same thing."""
    rng = np.random.default_rng(pick)
    nodes = overlay.nodes
    node = nodes[int(rng.choice(sorted(nodes)))]
    nbrs = node.neighbor_ids()
    if op == "sweep":
        _heal(overlay, rng, now)
        assert sweep(overlay, PERIODS[pick % len(PERIODS)], now) is not None
    elif op == "credit" and nbrs:
        node.credit_session_time(nbrs[pick % len(nbrs)], value, now=now)
    elif op == "credits" and nbrs:
        node.credit_session_times(nbrs[: 1 + pick % len(nbrs)], value, now=now)
    elif op == "write" and nbrs:
        node.neighbors[nbrs[pick % len(nbrs)]].session_time = value
    elif op == "add":
        pool = [i for i in sorted(nodes) if i != node.node_id and i not in nbrs]
        if pool:
            node.add_neighbor(int(rng.choice(pool)), initial_session_time=value)
    elif op == "remove" and nbrs:
        node.remove_neighbor(nbrs[pick % len(nbrs)])
    elif op == "set":
        pool = [i for i in sorted(nodes) if i != node.node_id]
        k = min(node.degree, len(pool))
        node.set_neighbors(int(i) for i in rng.choice(pool, size=k, replace=False))
    elif op == "join":
        offline = [nid for nid, n in sorted(nodes.items()) if not n.is_online]
        if offline:
            overlay.join(offline[pick % len(offline)], now)
    elif op == "leave" and overlay.online_count() > 2 and node.is_online:
        overlay.leave(node.node_id, now)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=5, max_value=14),
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
def test_lazy_sweep_matches_the_eager_loop(seed, n, degree, ops):
    (lazy, lazy_world), (eager, eager_world) = _pair(n, degree, seed)
    assert _observe(lazy, lazy_world) == _observe(eager, eager_world)
    for step, (op, pick, value, look) in enumerate(ops, start=1):
        _apply(lazy, fast_full_sweep, op, pick, value, now=float(step))
        _apply(eager, eager_sweep, op, pick, value, now=float(step))
        if look:
            assert _observe(lazy, lazy_world) == _observe(eager, eager_world)
    assert _observe(lazy, lazy_world) == _observe(eager, eager_world)


def test_a_sweep_writes_no_view_until_one_is_read():
    (overlay, _world), _ = _pair(20, 3, seed=5)
    node = overlay.nodes[4]
    view = next(iter(node.neighbors.values()))
    before = view.session_time
    for now in (1.0, 2.0, 3.0):
        assert fast_full_sweep(overlay, 0.7, now) is not None
    assert view._session_time == before
    assert view.session_time == before + 0.7 + 0.7 + 0.7
    assert view.last_seen == 3.0


def test_a_held_view_sees_the_sweeps_before_its_own_write():
    (lazy, _), (eager, _) = _pair(12, 3, seed=9)
    held = []
    for overlay, sweep in ((lazy, fast_full_sweep), (eager, eager_sweep)):
        view = next(iter(overlay.nodes[2].neighbors.values()))
        view.session_time = 42.0
        sweep(overlay, 5.0, 1.0)
        view.session_time = 1.5
        sweep(overlay, 0.1, 2.0)
        view.last_seen = 0.5
        held.append((view.session_time, view.last_seen))
    assert held[0] == held[1] == (1.5 + 0.1, 0.5)


def test_a_node_joining_later_takes_no_earlier_sweep():
    (lazy, lazy_world), (eager, eager_world) = _pair(10, 3, seed=2)
    for overlay, sweep in ((lazy, fast_full_sweep), (eager, eager_sweep)):
        assert sweep(overlay, 7.3, 1.0) is not None
        newcomer = overlay.spawn_node()
        overlay.join(newcomer.node_id, 2.0)
        assert sweep(overlay, 0.7, 3.0) is not None
    assert _observe(lazy, lazy_world) == _observe(eager, eager_world)
