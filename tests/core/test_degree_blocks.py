"""Degree blocks: the SPNE state layout and its two kernels.

``degree_blocks`` groups the states of a flat child axis into padded
``(S, W)`` tables; ``spne_state_validity`` and ``spne_level_step`` run one
block at a time.  The oracle here is the scalar Model II loop written out
per state (``best_mean = -1.0``, strict ``>``, the predecessor excluded
unless it is the only valid child): whatever the block layout, the
kernels must return its values bit for bit.  The layout tests pin the
structural bounds that keep padding cheap.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    WorldArrays,
    degree_blocks,
    spne_level_step,
    spne_state_validity,
)
from repro.network.overlay import Overlay
from repro.network.topology import build_topology, install_topology


def scalar_level(counts, child_edge, not_pred, valid0, base_q, prev_sum, prev_n):
    """One level of the scalar backward induction, state by state."""
    out_sum, out_n = [], []
    start = 0
    for count in counts:
        kids = range(start, start + count)
        start += count
        live = [k for k in kids if valid0[child_edge[k]]]
        cands = [k for k in live if not_pred[k]] or live
        best_sum, best_n, best_mean = 0.0, 0, -1.0
        for k in cands:
            c = child_edge[k]
            total_sum = float(base_q[c]) + float(prev_sum[c])
            total_n = 1 + int(prev_n[c])
            mean = total_sum / total_n
            if mean > best_mean:
                best_mean, best_sum, best_n = mean, total_sum, total_n
        out_sum.append(best_sum)
        out_n.append(best_n)
    return out_sum, out_n


def block_level(counts, child_edge, not_pred, valid0, base_q, prev_sum, prev_n):
    """The same level through ``degree_blocks`` and the block kernels;
    states without children stay at (0.0, 0)."""
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    blocks = degree_blocks(counts, offsets, child_edge, not_pred)
    out_sum = np.zeros(counts.size, dtype=np.float64)
    out_n = np.zeros(counts.size, dtype=np.int64)
    for block in blocks:
        st_valid, st_dead = spne_state_validity(
            valid0, block.child, block.real, block.not_pred
        )
        part_sum = np.empty(block.states.size, dtype=np.float64)
        part_n = np.empty(block.states.size, dtype=np.int64)
        spne_level_step(
            base_q[block.child],
            prev_sum,
            prev_n,
            block.child,
            st_valid,
            st_dead,
            part_sum,
            part_n,
        )
        out_sum[block.states] = part_sum
        out_n[block.states] = part_n
    return out_sum.tolist(), out_n.tolist(), blocks


def assert_matches_oracle(counts, child_edge, not_pred, valid0, base_q, prev_sum, prev_n):
    args = (
        np.asarray(counts, dtype=np.int64),
        np.asarray(child_edge, dtype=np.int64),
        np.asarray(not_pred, dtype=bool),
        np.asarray(valid0, dtype=bool),
        np.asarray(base_q, dtype=np.float64),
        np.asarray(prev_sum, dtype=np.float64),
        np.asarray(prev_n, dtype=np.int64),
    )
    got_sum, got_n, blocks = block_level(*args)
    want_sum, want_n = scalar_level(*args)
    assert got_sum == want_sum
    assert got_n == want_n
    return got_sum, got_n, blocks


@st.composite
def child_axes(draw):
    """A flat child axis over an edge space of ``m`` entries: childless
    states, one hub with at least 8x the mean count, quantised qualities
    (ties), and states whose only live child is the predecessor."""
    m = draw(st.integers(min_value=1, max_value=12))
    counts = draw(st.lists(st.integers(0, 4), min_size=3, max_size=25))
    counts[draw(st.integers(0, len(counts) - 1))] = 0
    mean = max(1.0, sum(counts) / len(counts))
    hub = draw(st.integers(0, len(counts) - 1))
    counts[hub] = draw(st.integers(math.ceil(8 * mean), 8 * math.ceil(mean) + 8))
    child_edge, not_pred = [], []
    for count in counts:
        kids = sorted(draw(st.lists(st.integers(0, m - 1), min_size=count, max_size=count)))
        pred = draw(st.sampled_from(kids)) if kids and draw(st.booleans()) else None
        child_edge += kids
        not_pred += [k != pred for k in kids]
    valid0 = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    # Quarters: equal means across children are common.
    base_q = [q / 4 for q in draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))]
    prev_n = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    prev_sum = [
        draw(st.integers(0, 4 * n)) / 4 if n else 0.0 for n in prev_n
    ]
    return counts, child_edge, not_pred, valid0, base_q, prev_sum, prev_n


@settings(max_examples=300, deadline=None)
@given(axis=child_axes())
def test_block_kernels_match_the_scalar_loop(axis):
    _, _, blocks = assert_matches_oracle(*axis)
    # The hub's width forces every other state with children into a
    # narrower block.
    counts = sorted(axis[0])
    assert len(blocks) >= 2 or counts[-2] == 0


def test_oracle_picks_the_predecessor_when_it_is_the_only_live_child():
    # State 0's children: edge 0 (the predecessor, live) and edge 1
    # (offline).  The fallback keeps the predecessor.
    got_sum, got_n, _ = assert_matches_oracle(
        counts=[2],
        child_edge=[0, 1],
        not_pred=[False, True],
        valid0=[True, False],
        base_q=[0.5, 1.0],
        prev_sum=[0.0, 0.0],
        prev_n=[0, 0],
    )
    assert (got_sum, got_n) == ([0.5], [1])


def test_oracle_keeps_the_last_child_before_a_childless_state():
    # State 0 = [child 0 (the predecessor), child 1]; state 1 has no
    # children, so on a flat child axis its segment would start at the
    # end.  Child 1 is state 0's only non-predecessor child and its
    # strict winner; the childless state reads (0.0, 0).
    got_sum, got_n, _ = assert_matches_oracle(
        counts=[2, 0],
        child_edge=[0, 1],
        not_pred=[False, True],
        valid0=[True, True],
        base_q=[0.25, 0.75],
        prev_sum=[0.0, 0.0],
        prev_n=[0, 0],
    )
    assert got_sum == [0.75, 0.0]
    assert got_n == [1, 0]


# ---- layout bounds -------------------------------------------------------
def _world(overlay):
    world = WorldArrays(overlay)
    world.ensure_fresh()
    return world


def assert_layout_bounds(world):
    counts = np.zeros(world.n_edges, dtype=np.int64)
    seen = np.zeros(world.n_edges, dtype=np.int64)
    padded = 0
    for b, block in enumerate(world.blocks):
        assert np.all(np.diff(block.states) > 0)
        row_counts = block.real.sum(axis=1)
        counts[block.states] = row_counts
        seen[block.states] += 1
        padded += block.real.size
        assert np.array_equal(world.st_block[block.states], np.full(block.states.size, b))
        assert np.array_equal(world.st_row[block.states], np.arange(block.states.size))
    degree = np.diff(world.indptr)
    expected = degree[world.nbr_flat]
    # Every state with children is in exactly one block, with all of them.
    assert np.array_equal(counts, expected)
    assert np.array_equal(seen, (expected > 0).astype(np.int64))
    assert world.n_children == int(expected.sum())
    assert padded < 2 * world.n_children
    assert len(world.blocks) <= int(math.log2(expected.max())) + 1


def test_bootstrap_overlay_is_one_block_of_width_d():
    overlay = Overlay(rng=np.random.default_rng(3), degree=5)
    overlay.bootstrap(200)
    world = _world(overlay)
    assert len(world.blocks) == 1
    block = world.blocks[0]
    assert block.child.shape == (world.n_edges, 5)
    assert np.array_equal(block.states, np.arange(world.n_edges))
    assert block.real.all()
    assert_layout_bounds(world)


def test_scale_free_overlay_layout_bounds():
    rng = np.random.default_rng(11)
    overlay = Overlay(rng=rng, degree=5)
    overlay.bootstrap(2000)
    install_topology(overlay, build_topology("scale-free", n=2000, degree=5, rng=rng))
    world = _world(overlay)
    assert len(world.blocks) > 1
    assert_layout_bounds(world)
