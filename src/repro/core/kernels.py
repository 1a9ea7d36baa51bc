"""Array-backed scoring kernels: the ``numpy`` routing backend.

The scalar strategies in :mod:`repro.core.routing` walk Python data
structures edge by edge — dict lookups, per-candidate ``bisect`` calls,
a recursive backward induction.  This module re-expresses the same
decisions over flat arrays so the per-candidate work becomes a handful
of vectorised kernels:

- :class:`WorldArrays` — a struct-of-arrays (CSR) view of the overlay
  topology plus per-edge availability, shared by every round a
  :class:`~repro.core.protocol.PathBuilder` builds.  It is kept
  *incrementally* consistent: nodes and the overlay expose monotonic
  version counters (``neighbors_version``, ``availability_version``,
  ``liveness_version``) and the arrays are rebuilt or patched only when
  a remembered version no longer matches.
- :class:`BatchPlanner` — the round-level batch planner.  It keeps one
  :class:`Frontier` per open connection (derived per-``(cid, round)``
  state: the per-edge quality row, liveness masks, SPNE value tables)
  and, when any connection needs its full quality row, rebuilds *all*
  stale prepared frontiers in one stacked ``(connections, edges)``
  kernel invocation.  ``PathBuilder`` announces upcoming rounds through
  :meth:`BatchPlanner.prepare` right after committing a path, so a
  heavy-traffic scenario scores many connections' next rounds inside a
  single numpy call instead of one call per connection.
- ``BatchPlanner.decide_model1`` / ``decide_model2`` — batched
  replacements for the scalar ``select_next_hop`` bodies: the arrays give
  the candidate set, root qualities and SPNE tails, and the scalar
  lane's own utility functions and ``(u, q, -id)`` picker
  (:func:`repro.core.utility.argmax_with_quality_tiebreak`) finish the
  decision in plain Python over those values.

**Bit-identity contract.**  The numpy backend must make *exactly* the
routing decisions the scalar backend makes — same hop choices, same
paths, same ``ScenarioResult`` — so either backend can serve as the
reference for the other.  Three rules keep the float streams and the
RNG stream aligned:

1. *Same scalar inputs.*  Availability values replay each node's
   ``availability_vector()`` normalisation: the same counters, summed
   column by column in the node's dict order (never with numpy's
   pairwise summation), then divided; selectivity hit counts are the same
   integers the scalar path's sorted-round-index bisects count — either
   those bisects themselves (:meth:`HistoryProfile.selectivity_hits_block`
   and its position-aware sibling ``selectivity_hits_block_pos``) or a
   :class:`HitRows` row kept equal to them by write-through.
2. *Same float expressions.*  Every arithmetic step mirrors the scalar
   expression tree op for op (``w_s*sigma + w_a*alpha`` then clamp;
   ``(q + tail_sum + 1.0) / (1 + tail_n + 1)``; …) — numpy's float64 ufuncs
   round identically to CPython floats, so equal expressions give equal
   bits.  Batch rows are computed element-wise, so *what else* is in a
   batch can never change a row's bits.
3. *Same RNG order.*  The only RNG consumer on the scoring path is the
   lazy per-link bandwidth draw inside ``CostModel.decision_cost``.
   The pick therefore calls it exactly as the scalar strategies do: once
   per candidate, in scalar candidate order, only for top-level
   decisions — never eagerly, never batched — so first-use draws happen
   at exactly the same points of the run.  Quality rows and SPNE tables
   touch no RNG at all, which is what makes speculative cross-
   connection batching sound.

**Backward induction as edge states.**  A memo state of the scalar
Model II recursion is ``(node, predecessor, depth)``; since the
predecessor is always the node that forwarded here, the reachable
states at each depth are exactly the *directed edges* of the overlay.
The induction therefore runs level-synchronously over the states, which
:func:`degree_blocks` lays out as dense *degree blocks*: every state
whose child count is above half the block's width ``W`` is one row of a
``(S, W)`` child table, padded slots masked out.  A level step gathers
the previous level's values through the table, forms candidate means
and takes a row ``argmax`` — the first index of the row maximum, which
is the scalar loop's strict-``>`` first winner because children sit in
ascending-id order.  Padding stays below the real children and there
are at most ``floor(log2(max count)) + 1`` blocks; the paper's overlay
(every node has ``d`` out-neighbours) is one block of width ``d``.  A
state without children is in no block and reads ``(0.0, 0)``, the
scalar loop's initial best.

One decision reads only the states of its own *lookahead ball*: the
candidate edges, their children, and so on ``lookahead`` levels down —
at most ``candidates * max_out_degree ** lookahead`` child slots in the
deepest level, against ``WorldArrays.n_children`` for the whole axis.
Two sweeps share the same kernels.  The full sweep runs over every
state, and its levels are cached per ``(cid, round)`` for the few
decisions of one round.  The ball sweep (``BatchPlanner._spne_ball``)
is the array form of the scalar memo for one decision, laid out as a
positional tree: each level holds every child slot of the level above,
in row order, so a slot reads its child's value at its own position and
no level is sorted or deduplicated (only a level larger than the edge
axis, on dense or hub-heavy worlds, is).  It gathers every level's
block rows top-down, runs :func:`spne_state_validity` once per degree
block and the base quality once over all slots, then steps the levels
bottom-up.  ``decide_model2`` takes the ball iff its size bound times
:data:`SPNE_BALL_MIN_RATIO` fits in the whole axis (real children, never
padded slots), a rule on world size alone: paper-size worlds keep the
cached full sweep, large overlays take the ball.  A ball decision also
scores only the edges it gathers (``BatchPlanner._ball_quality``: the
candidates and every level's child slots) with the full row's
element-wise expression, so without position-aware scoring it never
builds the connection's whole quality row.

**Position-aware selectivity.**  ``position_aware_selectivity=True``
conditions ``sigma`` on the upstream hop.  In state space that is
natural: state ``e = (u -> v)`` already carries the predecessor ``u``,
so the induction's base quality becomes a per-(state, child) table
``q_child``, one per block (edge ``v -> w`` scored against
``u``-conditioned selectivity) instead of the shared per-edge row.  Root decisions score
the deciding node's own slice against the *actual* predecessor
directly (the edge ``predecessor -> node`` need not exist in the CSR —
neighbour sets are not symmetric), cached per ``(node, predecessor)``.

**One freshness rule.**  Every decision reads the live world, on both
backends: ``BatchPlanner`` calls :meth:`WorldArrays.ensure_fresh` at the
start of every decision (O(1) behind the topology and availability
tokens when nothing moved), and the scalar strategies compute straight
from the overlay and the histories.  Nothing is snapshotted per round or
per formation attempt, so retries inside one round see the churn,
crash-rejoin and probe credits that happened while they backed off.
Derived frontier state is keyed on what it reads instead: quality rows
on ``(round_index, WorldArrays.alpha_generation)`` (histories commit
only after a round's path succeeds, so a round's selectivity is fixed),
candidate validity on ``Overlay.liveness_version``, everything on
``WorldArrays.generation``.  A speculatively pre-built row is therefore
dropped, never misused, when probing moved availability before the
round actually ran.  Ball-local qualities are computed per decision and
kept nowhere, so they need no key.

**Small-world crossover.**  The kernels win on batch size; on tiny
candidate sets the array bookkeeping costs more than the scalar loop
(measured ~3x slower for Model I at degree 5).  Model I dispatch
therefore stays scalar below :data:`MODEL1_KERNEL_MIN_CANDIDATES`
candidates unless the context disables the crossover.  Model II always
runs the kernels under ``numpy``.  Both branches are bit-identical, so
mixing them within one run is sound.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.core.utility import (
    argmax_with_quality_tiebreak,
    forwarder_utility_model1,
    forwarder_utility_model2,
)
from repro.sim.monitoring import PERF

if TYPE_CHECKING:  # typing only: no runtime dependency on the upper layers
    from repro.core.history import HistoryProfile
    from repro.core.routing import ForwardingContext
    from repro.network.overlay import Overlay


#: Recognised backend names, in preference-documentation order.
BACKENDS: Tuple[str, ...] = ("python", "numpy")

#: Environment variable consulted by :func:`default_backend`.
BACKEND_ENV = "REPRO_BACKEND"

#: Model I stays scalar below this many neighbours at the deciding node:
#: a single tiny candidate row costs more to stage into arrays than to
#: loop over (measured crossover on the hotpath benchmarks).
MODEL1_KERNEL_MIN_CANDIDATES = 12

#: Model II sweeps a decision's own lookahead ball instead of the whole
#: state axis once this many copies of the ball's size bound fit in the
#: axis (measured crossover: degree-5 L3 overlays switch at ~400 nodes).
SPNE_BALL_MIN_RATIO = 16

#: Frontier cache bound per planner (oldest evicted first).  Generous:
#: a frontier is a handful of per-edge arrays, and scenarios keep well
#: under this many connections open at once.
MAX_FRONTIERS = 128


def validate_backend(name: str) -> str:
    """Return ``name`` if it is a known backend, else raise ``ValueError``."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {list(BACKENDS)}"
        )
    return name


def default_backend() -> str:
    """The process-wide default backend: ``$REPRO_BACKEND`` or ``numpy``.

    The batched numpy kernels are the default — the scalar backend is
    the executable specification, kept bit-identical by the
    differential suite and selectable with ``REPRO_BACKEND=python``
    (or an explicit ``backend=`` argument) when stepping through
    decisions matters more than throughput.
    """
    value = os.environ.get(BACKEND_ENV, "").strip()
    if not value:
        return "numpy"
    return validate_backend(value)


class WorldArrays:
    """Struct-of-arrays view of the overlay, shared across rounds.

    Layout (all arrays are index-aligned on the *directed edge* axis;
    ``indptr`` is indexed by node id, so edge ``e`` with
    ``indptr[u] <= e < indptr[u+1]`` is the edge ``u -> nbr_flat[e]``,
    neighbours sorted ascending — the scalar candidate order):

    ``indptr``         CSR row pointers per node id.
    ``nbr_flat``       Edge head (neighbour id) per edge.
    ``owner_flat``     Edge tail (owning node id) per edge.
    ``alpha_flat``     Cached availability ``alpha(owner -> head)``.

    SPNE structure (state ``e`` = edge, i.e. "standing at ``head(e)``
    having arrived from ``owner(e)``"; its children are the CSR entries
    of ``head(e)``):

    ``blocks``      The :class:`DegreeBlock` list from
                    :func:`degree_blocks`: every state with children sits
                    in exactly one block, as one padded row.
    ``st_block``    Block index per state (``-1``: no children).
    ``st_row``      Row of the state inside its block.
    ``n_children``  Real (unpadded) children over all states.

    ``alpha_flat`` is recomputed from a session-time matrix whose row
    ``u`` holds node ``u``'s counters in neighbour-*dict* order: columns
    summed left to right, divided element-wise, zeros where the total
    is zero — the scalar ``PeerNode._refresh_availability`` expression
    tree, so the bits equal each node's ``availability_vector()``.

    Invalidation: :meth:`ensure_fresh` rebuilds the topology (and bumps
    ``generation``) when any node's ``neighbors_version`` moved or the
    node population changed.  A fast probe sweep reaches
    :meth:`on_fast_sweep` through the overlay's sweep listeners and is
    mirrored with one vectorised add.  Any other counter change moves
    the overlay's aggregate ``availability_version`` away from the
    world's token (which each mirrored sweep advances by one per node);
    only then, or when some node is not wired to the overlay, a
    per-node ``availability_version`` scan resyncs the rows that moved.
    Reading a node's version applies its pending sweep credits
    (:mod:`repro.network.node`), so the scan sees eager counters.
    Recomputing alpha bumps ``alpha_generation``, the token frontier
    quality rows key on.  Liveness is *not* stored here — it changes
    mid-round under fault injection and is masked per :class:`Frontier`.
    """

    def __init__(self, overlay: "Overlay") -> None:
        self.overlay = overlay
        #: Bumped on every topology rebuild; frontiers compare against it.
        self.generation = 0
        #: Bumped whenever any ``alpha_flat`` slice is re-patched; part
        #: of the quality-row freshness token, so rows pre-built for a
        #: future round survive exactly until availability moves.
        self.alpha_generation = 0
        self.size = 0
        self.n_edges = 0
        #: Largest out-degree in the CSR: bounds a lookahead ball's size.
        self.max_out_degree = 0
        self.indptr: Optional[np.ndarray] = None
        self.nbr_flat = np.zeros(0, dtype=np.int64)
        self.owner_flat = np.zeros(0, dtype=np.int64)
        self.alpha_flat = np.zeros(0, dtype=np.float64)
        self.nbr_lists: Dict[int, List[int]] = {}
        self.blocks: List[DegreeBlock] = []
        self.st_block = np.zeros(0, dtype=np.int64)
        self.st_row = np.zeros(0, dtype=np.int64)
        self.n_children = 0
        self._nbr_versions: Dict[int, int] = {}
        #: O(1) staleness token: (overlay.topology_version, overlay
        #: ``_next_id``, node count) at the last rebuild, trusted only
        #: when every snapshot node's ``_topology_listener`` and
        #: ``_availability_listener`` were wired to this overlay
        #: (``_wired_snapshot``) — unwired nodes mutate without bumping
        #: the aggregate counters, so the per-node scans stay the
        #: authoritative fallback.
        self._topo_token: Optional[tuple] = None
        self._wired_snapshot = False
        #: Session-time mirror: ``_sess_mat[u, j]`` is node ``u``'s
        #: ``j``-th neighbour counter in dict order, ``_sess_ver[u]`` the
        #: node's ``availability_version`` the row matches, ``_sess_idx``
        #: each edge's flat cell and ``_avail_token`` the overlay's
        #: aggregate ``availability_version`` the matrix accounts for.
        self._sess_mat = np.zeros((0, 0), dtype=np.float64)
        self._sess_ver = np.zeros(0, dtype=np.int64)
        self._sess_idx = np.zeros(0, dtype=np.int64)
        self._avail_token: Optional[int] = None
        self._alpha_dirty = False
        add_listener = getattr(overlay, "add_sweep_listener", None)
        if add_listener is not None:
            add_listener(self.on_fast_sweep)

    # -- freshness ---------------------------------------------------------
    def ensure_fresh(self) -> None:
        """Bring topology and availability arrays up to date (O(1) when
        nothing changed and every node is wired to the overlay; one
        version compare per node otherwise)."""
        if self._topology_stale():
            self._rebuild_topology()
        self._refresh_alpha()

    def _topology_stale(self) -> bool:
        if self.indptr is None:
            return True
        overlay = self.overlay
        if self._wired_snapshot and self._topo_token == (
            getattr(overlay, "topology_version", None),
            getattr(overlay, "_next_id", None),
            len(overlay.nodes),
        ):
            # Every snapshot node pushes neighbour-set changes into the
            # overlay's aggregate counter, node creation bumps
            # ``_next_id`` and removal shrinks ``nodes`` — so three
            # O(1) compares cover everything the scan below detects.
            return False
        nodes = overlay.nodes
        vers = self._nbr_versions
        if len(nodes) != len(vers):
            return True
        get = vers.get
        for nid, node in nodes.items():
            if get(nid) != node.neighbors_version:
                return True
        return False

    def _rebuild_topology(self) -> None:
        nodes = self.overlay.nodes
        ids = sorted(nodes)
        nbr_lists: Dict[int, List[int]] = {}
        vers: Dict[int, int] = {}
        max_ref = ids[-1] if ids else -1
        for nid in ids:
            node = nodes[nid]
            lst = sorted(node.neighbors)
            nbr_lists[nid] = lst
            vers[nid] = node.neighbors_version
            if lst and lst[-1] > max_ref:
                max_ref = lst[-1]
        size = max_ref + 1
        indptr = np.zeros(size + 1, dtype=np.int64)
        for nid, lst in nbr_lists.items():
            indptr[nid + 1] = len(lst)
        np.cumsum(indptr, out=indptr)
        n_edges = int(indptr[-1]) if size else 0
        # nbr_lists iterates in ascending-id insertion order and absent
        # ids contribute empty segments, so concatenating the lists IS
        # the CSR payload.
        nbr_flat = np.fromiter(
            (j for lst in nbr_lists.values() for j in lst),
            dtype=np.int64,
            count=n_edges,
        )
        deg = np.diff(indptr)
        owner_flat = np.repeat(np.arange(size, dtype=np.int64), deg)

        self.size = size
        self.n_edges = n_edges
        self.max_out_degree = int(deg.max()) if size else 0
        self.indptr = indptr
        self.nbr_flat = nbr_flat
        self.owner_flat = owner_flat
        self.nbr_lists = nbr_lists
        self._nbr_versions = vers
        topo_cb = getattr(self.overlay, "_on_topology_change", None)
        avail_cb = getattr(self.overlay, "_on_availability_change", None)
        self._wired_snapshot = (
            topo_cb is not None
            and avail_cb is not None
            and all(
                node._topology_listener == topo_cb
                and node._availability_listener == avail_cb
                for node in nodes.values()
            )
        )
        self._topo_token = (
            getattr(self.overlay, "topology_version", None),
            getattr(self.overlay, "_next_id", None),
            len(nodes),
        )
        self._build_state_structure()
        self.alpha_flat = np.zeros(n_edges, dtype=np.float64)
        self._build_session_state()
        self.generation += 1
        PERF.array_rebuilds += 1

    def _build_session_state(self) -> None:
        """Lay out a fresh session-time matrix; the next refresh reads
        every row (``_sess_ver`` matches no node)."""
        assert self.indptr is not None
        nodes = self.overlay.nodes
        owner = self.owner_flat
        width = self.max_out_degree
        # Column j of row u is u's j-th neighbour in dict order; sorting
        # the dict-order cells by (owner, id) lines them up with the CSR.
        dict_ids = np.fromiter(
            (j for nid in self.nbr_lists for j in nodes[nid].neighbors),
            dtype=np.int64,
            count=self.n_edges,
        )
        cell = owner * width + np.arange(self.n_edges) - self.indptr[owner]
        self._sess_idx = cell[np.argsort(owner * self.size + dict_ids)]
        self._sess_mat = np.zeros((self.size, width), dtype=np.float64)
        self._sess_ver = np.full(self.size, -1, dtype=np.int64)
        self._avail_token = None

    def _build_state_structure(self) -> None:
        """Group the SPNE states into degree blocks (pure topology)."""
        assert self.indptr is not None
        counts, offsets, child_edge, not_pred = state_child_axis(
            self.indptr, self.nbr_flat, self.owner_flat
        )
        self.n_children = int(offsets[-1])
        self.blocks = degree_blocks(counts, offsets, child_edge, not_pred)
        self.st_block = np.full(self.n_edges, -1, dtype=np.int64)
        self.st_row = np.zeros(self.n_edges, dtype=np.int64)
        for b, block in enumerate(self.blocks):
            self.st_block[block.states] = b
            self.st_row[block.states] = np.arange(block.states.size)

    def block_groups(
        self, states: np.ndarray
    ) -> List[Tuple[int, Optional[np.ndarray], np.ndarray]]:
        """Group ``states`` by degree block: ``(b, at, rows)`` says that
        ``states[at]`` sit at ``rows`` of block ``b``; ``at`` is ``None``
        when every state is in that block.  States without children are
        in no group."""
        blk = self.st_block[states]
        row = self.st_row[states]
        groups = []
        for b in range(len(self.blocks)):
            in_b = blk == b
            if in_b.all():
                return [(b, None, row)]
            at = np.flatnonzero(in_b)
            if at.size:
                groups.append((b, at, row[at]))
        return groups

    def on_fast_sweep(self, period: float) -> None:
        """Mirror a :func:`~repro.network.probing.fast_full_sweep`: every
        counter grows by ``period`` and every node's version by one, so
        rows out of sync keep their lag.  The token takes the sweep's
        one aggregate bump per node."""
        self._sess_mat.ravel()[self._sess_idx] += period
        self._sess_ver += 1
        if self._avail_token is not None:
            self._avail_token += len(self.overlay.nodes)
        self._alpha_dirty = True

    def _refresh_alpha(self) -> None:
        overlay = self.overlay
        token = getattr(overlay, "availability_version", None)
        if not (self._wired_snapshot and token == self._avail_token):
            # Something besides a mirrored sweep may have moved a counter.
            nodes = overlay.nodes
            seen = self._sess_ver.tolist()
            stale = [
                nid
                for nid, node in nodes.items()
                if seen[nid] != node.availability_version
            ]
            for nid in stale:
                node = nodes[nid]
                row = [v._session_time for v in node.neighbors.values()]
                self._sess_mat[nid, : len(row)] = row
                self._sess_ver[nid] = node.availability_version
            self._avail_token = token
            if stale:
                PERF.alpha_row_resyncs += len(stale)
                self._alpha_dirty = True
        if not self._alpha_dirty:
            return
        self._alpha_dirty = False
        # Scalar parity: the total accumulates left to right over the
        # dict-ordered counters (padding cells add an exact +0.0).
        total = np.zeros(self.size, dtype=np.float64)
        for col in self._sess_mat.T:
            total += col
        den = total[self.owner_flat]
        num = self._sess_mat.ravel()[self._sess_idx]
        positive = den > 0.0
        # In place: the sharded engine keeps alpha_flat in shared memory.
        self.alpha_flat[:] = np.where(
            positive, num / np.where(positive, den, 1.0), 0.0
        )
        self.alpha_generation += 1
        PERF.alpha_refreshes += 1


class DegreeBlock(NamedTuple):
    """SPNE states with similar child counts, one padded row each.

    ``states``    Ascending state ids ``(S,)``.
    ``child``     ``(S, W)`` child index table; padding slots repeat the
                  row's first child, so every gather stays in range.
    ``real``      ``(S, W)``: the slot holds a real child.
    ``not_pred``  ``(S, W)``: a real child whose head differs from the
                  state's predecessor (the no-backtracking filter).
    """

    states: np.ndarray
    child: np.ndarray
    real: np.ndarray
    not_pred: np.ndarray


def state_child_axis(
    indptr: np.ndarray, nbr_flat: np.ndarray, owner_flat: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The flat child axis of the SPNE states: ``(counts, offsets,
    child_edge, not_pred)``.  State ``e`` owns the children
    ``child_edge[offsets[e] : offsets[e + 1]]`` (the CSR entries of
    ``head(e)``, ascending ids); ``offsets`` has ``n_edges + 1`` entries."""
    counts = np.diff(indptr)[nbr_flat]
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    # Segmented arange: child c of state e maps to CSR entry
    # indptr[head(e)] + (c's rank within the segment).
    rank = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    child_edge = np.repeat(indptr[nbr_flat], counts) + rank
    not_pred = nbr_flat[child_edge] != np.repeat(owner_flat, counts)
    return counts, offsets, child_edge, not_pred


def degree_blocks(
    counts: np.ndarray,
    offsets: np.ndarray,
    child_edge: np.ndarray,
    not_pred: np.ndarray,
) -> List[DegreeBlock]:
    """Group the states of a flat child axis into degree blocks.

    State ``s`` (a position in ``counts``) owns the flat children
    ``child_edge[offsets[s] : offsets[s] + counts[s]]``; a block's
    ``states`` are such positions.  Each block takes the widest remaining
    child count ``W`` and every remaining state whose count is above
    ``W / 2``, padded to width ``W``, until every state with children is
    in a block.  So padding stays below the real children, and there are
    at most ``floor(log2(max count)) + 1`` blocks.  A state without
    children is in no block.
    """
    blocks: List[DegreeBlock] = []
    rest = np.flatnonzero(counts)
    while rest.size:
        rest_counts = counts[rest]
        width = int(rest_counts.max())
        take = 2 * rest_counts > width
        rows = rest[take]
        rest = rest[~take]
        cols = np.arange(width, dtype=np.int64)
        real = cols < counts[rows][:, None]
        first = offsets[rows][:, None]
        pos = np.where(real, first + cols, first)
        blocks.append(
            DegreeBlock(rows, child_edge[pos], real, not_pred[pos] & real)
        )
    return blocks


def spne_state_validity(
    valid0: np.ndarray,
    child: np.ndarray,
    real: np.ndarray,
    not_pred: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """State-level candidate validity for the rows of one degree block.

    ``child``/``real``/``not_pred`` are block rows (global child edge
    ids); ``valid0`` is the full edge-axis liveness row the children
    gather from.  Returns the per-slot ``st_valid`` mask and the per-row
    ``st_dead`` mask.  Rows are independent, so any rows of a block, in
    any order and repeated — a shard's range, a lookahead ball's rows
    over all its levels — get the masks the whole block gets.
    """
    v0c = valid0[child] & real
    not_pred = v0c & not_pred
    # Row "any" as a bool matrix-vector product (OR of ANDs): exact, and
    # cheaper than a reduction along the short axis.
    ones = np.ones(child.shape[1], dtype=bool)
    # Scalar fallback rule, per state: exclude the predecessor
    # unless that empties the candidate set.
    st_valid = np.where((not_pred @ ones)[:, None], not_pred, v0c)
    return st_valid, ~(v0c @ ones)


def spne_level_step(
    base_child: np.ndarray,
    prev_sum: np.ndarray,
    prev_n: np.ndarray,
    child: np.ndarray,
    st_valid: np.ndarray,
    st_dead: np.ndarray,
    out_sum: np.ndarray,
    out_n: np.ndarray,
) -> None:
    """One backward-induction level for the rows of one degree block.

    ``prev_sum``/``prev_n`` are the *complete* previous level (children
    may sit in any block); ``base_child`` is the ``(S, W)`` base quality
    of each slot and ``child`` the gather index into ``prev_*``: global
    edge ids for the full sweep, positions in the level below for a
    lookahead ball.  Results go to ``out_sum``/``out_n`` (one entry per
    row) — for the sharded engine these may be shared-memory views.

    Every row is computed from its own slots alone, so any set of rows
    in any order — a shard range or a lookahead ball — gets the bits the
    whole block gets.
    """
    total_sum = base_child + prev_sum[child]
    total_n = 1 + prev_n[child]
    # Invalid and padded slots get a sentinel below every reachable mean
    # (means are >= 0; the scalar loop's initial best is -1.0).
    masked = np.where(st_valid, total_sum / total_n, -2.0)
    # argmax returns the first index of the row maximum == the scalar
    # loop's strict-`>` first winner (children are in ascending-id,
    # i.e. scalar candidate, order).
    width = child.shape[1]
    sel = masked.argmax(axis=1) + np.arange(0, masked.size, width)
    out_sum[:] = total_sum.ravel()[sel]
    out_n[:] = total_n.ravel()[sel]
    out_sum[st_dead] = 0.0
    out_n[st_dead] = 0


#: Round horizon that makes ``selectivity_hits_block`` count every stored
#: entry, whatever its round.
_ALL_ROUNDS = 1 << 62


class _BallRows(NamedTuple):
    """One degree block's rows within a lookahead-ball level."""

    block: int
    at: Optional[np.ndarray]  # positions in the level; None: all of it
    lo: int  # first row among the block's rows over all ball levels
    child: np.ndarray  # the rows' child tables (global edge ids)


class HitRows:
    """Per-cid selectivity hit counts over the :class:`WorldArrays` edge
    axis, kept incrementally exact.

    ``row(cid, r, histories)[e]`` is the number of history entries node
    ``owner(e)`` stores for ``(cid, successor=head(e))``.  A row counts
    *every* stored entry, which equals the ``bisect_left`` numerator of
    :meth:`HistoryProfile.selectivity_hits_block` for round ``r`` exactly
    when all of the cid's entries lie below ``r``.  The store tracks the
    highest round ever recorded per cid and returns ``None`` when that
    condition fails, so the caller falls back to the bisects.  Eviction
    and ``forget_series`` leave the tracked round as an upper bound, which
    can only cause extra fallbacks, never a wrong row.

    A row is materialised from the sorted indices of only the nodes that
    ever recorded for the cid, then kept fresh by write-through: the
    store subscribes to every profile in ``histories`` (profiles added
    later are picked up when the mapping grows) and applies each record,
    eviction and forget to the live rows.  A topology rebuild
    (``WorldArrays.generation`` moves) drops every row.  The store holds
    no reference to the histories or to any profile, and profiles hold it
    only weakly, so no reference cycle keeps a finished run alive.
    """

    def __init__(self, world: WorldArrays) -> None:
        self.world = world
        #: cid -> int32 hit row, valid for ``_generation``.
        self.rows: Dict[int, np.ndarray] = {}
        self._generation = world.generation
        #: cid -> nodes that ever recorded for it (a superset once
        #: entries are evicted).
        self._recorded: Dict[int, Set[int]] = {}
        #: cid -> highest round index ever recorded for it.
        self._max_round: Dict[int, int] = {}
        self._n_bound = 0

    def bind(self, histories: "Mapping[int, HistoryProfile]") -> None:
        """Subscribe to every profile not yet subscribed, seeding the
        per-cid bookkeeping from its stored entries.  O(1) unless the
        mapping grew since the last call."""
        if len(histories) == self._n_bound:
            return
        for nid, profile in histories.items():
            if profile.is_subscribed(self):
                continue
            profile.subscribe(self)
            for cid, latest in profile.latest_rounds().items():
                self._note(nid, cid, latest)
                self.rows.pop(cid, None)
        self._n_bound = len(histories)

    def row(
        self, cid: int, round_index: int, histories: "Mapping[int, HistoryProfile]"
    ) -> Optional[np.ndarray]:
        """The cid's hit row for ``round_index`` under the current
        topology, or ``None`` when some stored entry is not below
        ``round_index`` (the row would over-count)."""
        world = self.world
        if self._generation != world.generation:
            self.rows.clear()
            self._generation = world.generation
        self.bind(histories)
        if self._max_round.get(cid, 0) >= round_index:
            return None
        row = self.rows.get(cid)
        if row is None:
            row = np.zeros(world.n_edges, dtype=np.int32)
            starts = world.indptr.tolist()
            nbr_lists = world.nbr_lists
            # Segments are disjoint, so the visiting order is irrelevant.
            for nid in self._recorded.get(cid, ()):
                lst = nbr_lists.get(nid)
                if lst:
                    start = starts[nid]
                    row[start : start + len(lst)] = histories[
                        nid
                    ].selectivity_hits_block(cid, lst, _ALL_ROUNDS)
            self.rows[cid] = row
        return row

    def drop(self, cid: int) -> None:
        """Release the cid's row (its frontier was evicted)."""
        self.rows.pop(cid, None)

    # -- write-through (called by HistoryProfile) -----------------------
    def _note(self, node_id: int, cid: int, round_index: int) -> None:
        recorded = self._recorded.get(cid)
        if recorded is None:
            recorded = self._recorded[cid] = set()
        recorded.add(node_id)
        if round_index > self._max_round.get(cid, 0):
            self._max_round[cid] = round_index

    def _live_row(self, cid: int) -> Optional[np.ndarray]:
        if self._generation != self.world.generation:
            return None  # stale layout: dropped on the next row() call
        return self.rows.get(cid)

    def on_hits(
        self, node_id: int, cid: int, round_index: int, successor: int, delta: int
    ) -> None:
        if delta > 0:
            self._note(node_id, cid, round_index)
        row = self._live_row(cid)
        if row is None:
            return
        lst = self.world.nbr_lists.get(node_id)
        if lst:
            j = bisect_left(lst, successor)
            if j < len(lst) and lst[j] == successor:
                row[int(self.world.indptr[node_id]) + j] += delta

    def on_forget(self, node_id: int, cid: int) -> None:
        recorded = self._recorded.get(cid)
        if recorded is not None:
            recorded.discard(node_id)
        row = self._live_row(cid)
        lst = self.world.nbr_lists.get(node_id)
        if row is not None and lst:
            start = int(self.world.indptr[node_id])
            row[start : start + len(lst)] = 0


class Frontier:
    """Per-connection derived state inside a :class:`BatchPlanner`.

    Three epochs, invalidated independently by freshness tokens:

    - quality (``q_flat``/``q_child``/``pos_q_cache``): keyed
      ``(round_index, WorldArrays.alpha_generation)`` — history commits
      advance the round, probe sweeps advance ``alpha_generation``.
      ``q_flat`` is filled only by the full sweep's decisions (and by
      Model I per node); a lookahead-ball decision scores its own edges
      and leaves it, and ``row_complete``, untouched.  The dense rows
      (``q_flat`` and the per-node ``q_built`` flags) are allocated on
      first use, so a frontier that only ever decides over lookahead
      balls holds neither (both stay ``None``);
    - liveness (``valid0`` and the per-block ``st_valid``/``st_dead``):
      keyed ``Overlay.liveness_version``;
    - SPNE value tables (``levels_*``): keyed on both plus the
      position-aware flag.  Only the full-axis sweep fills them; a
      lookahead-ball decision keeps its values local.
    """

    __slots__ = (
        "cid",
        "round_index",
        "responder",
        "generation",
        "wants_full_row",
        "q_flat",
        "q_built",
        "row_complete",
        "q_token",
        "q_child",
        "q_child_token",
        "pos_q_cache",
        "valid0",
        "st_valid",
        "st_dead",
        "liveness_token",
        "levels_sum",
        "levels_n",
        "levels_token",
    )

    def __init__(self, cid: int, round_index: int, responder: int) -> None:
        self.cid = cid
        self.round_index = round_index
        self.responder = responder
        self.generation = -1
        #: True once any Model II decision needed the full quality row —
        #: only such connections are worth pre-building into batches.
        self.wants_full_row = False
        self.q_flat: Optional[np.ndarray] = None
        self.q_built: Optional[np.ndarray] = None
        self.row_complete = False
        self.q_token: Optional[Tuple[int, int]] = None
        #: Position-aware base quality, one ``(S, W)`` table per block.
        self.q_child: Optional[List[np.ndarray]] = None
        self.q_child_token: Optional[Tuple[int, int]] = None
        self.pos_q_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self.valid0: Optional[np.ndarray] = None
        #: Per-block SPNE validity (``spne_state_validity`` outputs).
        self.st_valid: Optional[List[np.ndarray]] = None
        self.st_dead: Optional[List[np.ndarray]] = None
        self.liveness_token: Optional[int] = None
        self.levels_sum: Optional[List[np.ndarray]] = None
        self.levels_n: Optional[List[np.ndarray]] = None
        self.levels_token: Optional[tuple] = None


class BatchPlanner:
    """Round-level batch planner: one per :class:`PathBuilder` (or per
    bare context), holding one :class:`Frontier` per open connection
    over a shared :class:`WorldArrays`.

    All contexts routed through one planner must share ``histories``
    and ``weights`` (true for every context a single ``PathBuilder``
    creates) — quality rows are built from them without re-reading per
    decision.  Contract payloads and responders may differ per
    connection; they live on the frontier.
    """

    def __init__(self, world: WorldArrays) -> None:
        self.world = world
        self.frontiers: Dict[int, Frontier] = {}
        #: Frontiers announced through :meth:`prepare` and not yet taken
        #: into a stacked build: each announced round buys at most one
        #: pre-built row, so retired connections never leak work into
        #: later batches.
        self.announced: Dict[int, Frontier] = {}
        #: Selectivity hit rows for the full-row builds; a row lives as
        #: long as its cid's frontier.
        self.hits = HitRows(world)
        #: High-water mark of frontiers scored in one stacked kernel
        #: call — the cross-connection batching observable.
        self.max_batched_frontiers = 0
        self._mask: Optional[np.ndarray] = None
        self._mask_key: Optional[Tuple[int, int]] = None

    # -- announcements -----------------------------------------------------
    def prepare(self, cid: int, round_index: int, responder: int) -> None:
        """Announce that connection ``cid`` will next build
        ``round_index`` — called by the protocol layer right after a
        path commit, when the round's history is final.

        Cheap: no arrays are touched here.  The frontier is only marked
        eligible for the next stacked quality build, so another
        connection's decision computes this one's row for free.  If the
        prediction misses (cid rotation re-keyed the epoch, probing
        moved availability first), the freshness token discards the row
        — speculation is never observable, only faster.
        """
        fr = self.frontiers.get(cid)
        if fr is None:
            fr = self._new_frontier(cid, round_index, responder)
        fr.round_index = round_index
        fr.responder = responder
        self.announced[cid] = fr

    # -- frontier bookkeeping ----------------------------------------------
    def _new_frontier(self, cid: int, round_index: int, responder: int) -> Frontier:
        if len(self.frontiers) >= MAX_FRONTIERS:
            oldest = next(iter(self.frontiers))
            del self.frontiers[oldest]
            self.announced.pop(oldest, None)
            self.hits.drop(oldest)
        fr = Frontier(cid, round_index, responder)
        self.frontiers[cid] = fr
        return fr

    def _reset_frontier(self, fr: Frontier) -> None:
        world = self.world
        fr.generation = world.generation
        fr.q_flat = None
        fr.q_built = None
        fr.row_complete = world.n_edges == 0
        fr.q_token = None
        fr.q_child = None
        fr.q_child_token = None
        fr.pos_q_cache = {}
        fr.valid0 = None
        fr.st_valid = None
        fr.st_dead = None
        fr.liveness_token = None
        fr.levels_sum = None
        fr.levels_n = None
        fr.levels_token = None

    def _sync_round_token(self, fr: Frontier) -> None:
        tok = (fr.round_index, self.world.alpha_generation)
        if fr.q_token != tok:
            fr.q_token = tok
            fr.row_complete = self.world.n_edges == 0
            if fr.q_built is not None:
                fr.q_built[:] = False
            fr.pos_q_cache.clear()
            fr.q_child = None
            fr.q_child_token = None

    def _frontier(self, context: "ForwardingContext") -> Frontier:
        """The synced frontier for the context's connection, over a world
        brought up to date for this decision (the one freshness rule)."""
        world = self.world
        world.ensure_fresh()
        fr = self.frontiers.get(context.cid)
        if fr is None:
            fr = self._new_frontier(
                context.cid, context.round_index, context.responder
            )
        fr.round_index = context.round_index
        if fr.generation != world.generation:
            self._reset_frontier(fr)
        if fr.responder != context.responder:
            fr.responder = context.responder
            fr.valid0 = None
            fr.st_valid = None
            fr.st_dead = None
            fr.liveness_token = None
            fr.levels_token = None
        self._sync_round_token(fr)
        return fr

    # -- liveness ----------------------------------------------------------
    def _online_mask(self) -> np.ndarray:
        """Overlay liveness as a bool vector, shared across frontiers
        within one ``(liveness_version, generation)`` epoch."""
        world = self.world
        key = (world.overlay.liveness_version, world.generation)
        if key != self._mask_key or self._mask is None:
            self._mask = world.overlay.online_mask(world.size)
            self._mask_key = key
        return self._mask

    def _ensure_liveness(self, fr: Frontier, context: "ForwardingContext") -> None:
        stamp = context.overlay.liveness_version
        if fr.liveness_token == stamp and fr.valid0 is not None:
            return
        world = self.world
        nbr = world.nbr_flat
        online = self._online_mask()
        fr.valid0 = online[nbr] & (nbr != fr.responder)
        # State-level (SPNE) validity is derived lazily: Model I
        # decisions never touch it, and it is ~branching-factor times
        # larger than the edge axis.
        fr.st_valid = None
        fr.st_dead = None
        fr.liveness_token = stamp
        PERF.kernel_calls += 1
        PERF.kernel_batch_elements += int(nbr.size)

    def _ensure_state_valid(self, fr: Frontier) -> None:
        if fr.st_valid is not None:
            return
        masks = [
            spne_state_validity(fr.valid0, block.child, block.real, block.not_pred)
            for block in self.world.blocks
        ]
        fr.st_valid = [valid for valid, _ in masks]
        fr.st_dead = [dead for _, dead in masks]

    # -- quality -----------------------------------------------------------
    def _ensure_q_node(self, fr: Frontier, context: "ForwardingContext", node_id: int) -> None:
        """Lazily score one node's slice (Model I touches only the
        deciding node's row; also the root row under position-aware
        scoring with no predecessor)."""
        if fr.row_complete:
            return
        world = self.world
        if fr.q_built is None:
            fr.q_built = np.zeros(world.size, dtype=bool)
        if fr.q_flat is None:
            fr.q_flat = np.zeros(world.n_edges, dtype=np.float64)
        if fr.q_built[node_id]:
            return
        start = int(world.indptr[node_id])
        end = int(world.indptr[node_id + 1])
        if start == end:
            fr.q_built[node_id] = True
            return
        nbrs = world.nbr_lists[node_id]
        hits = context.histories[node_id].selectivity_hits_block(
            fr.cid, nbrs, fr.round_index
        )
        max_entries = fr.round_index - 1
        if max_entries == 0:
            sigma = np.zeros(end - start, dtype=np.float64)
        else:
            sigma = np.minimum(
                1.0, np.asarray(hits, dtype=np.float64) / max_entries
            )
        weights = context.weights
        q = (
            weights.selectivity * sigma
            + weights.availability * world.alpha_flat[start:end]
        )
        fr.q_flat[start:end] = np.minimum(1.0, np.maximum(0.0, q))
        fr.q_built[node_id] = True
        PERF.kernel_calls += 1
        PERF.kernel_batch_elements += end - start
        PERF.edges_scored += end - start

    def _ensure_full_rows(self, fr: Frontier, context: "ForwardingContext") -> None:
        """The cross-connection quality kernel: stack every stale
        prepared frontier's hit counts into one ``(F, E)`` matrix and
        score all rows with a single vectorised expression.

        Each member's hit counts are one row gather from :class:`HitRows`
        — the same integers the bisects count (rule 1 of the bit-identity
        contract), and int32 converts to float64 exactly.  When the cid
        has an entry at or past the member's round, the row would
        over-count, so the member falls back to one bisect per edge
        (``PERF.hit_row_fallbacks``).  Rows are element-wise independent,
        so co-batching can never change a row's bits.
        """
        fr.wants_full_row = True
        if fr.row_complete:
            return
        world = self.world
        members = [fr]
        for other in list(self.announced.values()):
            if other is fr or not other.wants_full_row:
                continue
            del self.announced[other.cid]
            if other.generation != world.generation:
                self._reset_frontier(other)
            self._sync_round_token(other)
            if not other.row_complete:
                members.append(other)
        n_edges = world.n_edges
        hits_mat = np.empty((len(members), n_edges), dtype=np.float64)
        histories = context.histories
        for i, member in enumerate(members):
            cid, rnd = member.cid, member.round_index
            row = self.hits.row(cid, rnd, histories)
            if row is not None:
                hits_mat[i, :] = row
                continue
            PERF.hit_row_fallbacks += 1
            counts: List[int] = []
            extend = counts.extend
            for nid, lst in world.nbr_lists.items():
                if lst:
                    extend(
                        histories[nid].selectivity_hits_block(cid, lst, rnd)
                    )
            hits_mat[i, :] = counts
        max_entries = np.array(
            [float(member.round_index - 1) for member in members],
            dtype=np.float64,
        )
        # Round-1 rows have all-zero hits, so any positive divisor
        # reproduces the scalar "no history yet -> sigma = 0" branch.
        safe = np.where(max_entries > 0.0, max_entries, 1.0)
        sigma = np.minimum(1.0, hits_mat / safe[:, None])
        weights = context.weights
        q = (
            weights.selectivity * sigma
            + weights.availability * world.alpha_flat[None, :]
        )
        q = np.minimum(1.0, np.maximum(0.0, q))
        alpha_gen = world.alpha_generation
        for member, q_row in zip(members, q):
            member.q_flat = q_row
            member.row_complete = True
            member.q_token = (member.round_index, alpha_gen)
        if len(members) > self.max_batched_frontiers:
            self.max_batched_frontiers = len(members)
        PERF.kernel_calls += 1
        PERF.kernel_batch_elements += int(q.size)
        PERF.edges_scored += int(q.size)

    def _ball_quality(
        self, fr: Frontier, context: "ForwardingContext"
    ) -> "Callable[[np.ndarray], np.ndarray]":
        """Edge quality for a lookahead-ball decision: a function from
        edge ids (any shape) to ``q_flat``'s values at those edges, which
        scores only the edges it is given.

        It reads the cid's :class:`HitRows` row and ``alpha_flat`` with
        :meth:`_ensure_full_rows`' element-wise expression, so the bits
        equal the full row's.  A frontier whose full row is already built
        reads it; when the hit row would over-count (``HitRows.row``
        returns ``None``), the full row is built and read instead.
        """
        if not fr.row_complete:
            row = self.hits.row(fr.cid, fr.round_index, context.histories)
            if row is None:
                self._ensure_full_rows(fr, context)
        if fr.row_complete:
            assert fr.q_flat is not None
            return fr.q_flat.__getitem__
        max_entries = float(fr.round_index - 1)
        safe = max_entries if max_entries > 0.0 else 1.0
        weights = context.weights
        w_sel, w_avail = weights.selectivity, weights.availability
        alpha = self.world.alpha_flat
        perf = PERF

        def quality(edges: np.ndarray) -> np.ndarray:
            sigma = np.minimum(1.0, row[edges].astype(np.float64) / safe)
            q = w_sel * sigma + w_avail * alpha[edges]
            perf.kernel_calls += 1
            perf.kernel_batch_elements += edges.size
            perf.edges_scored += edges.size
            return np.minimum(1.0, np.maximum(0.0, q))

        return quality

    def _ensure_q_child(self, fr: Frontier, context: "ForwardingContext") -> None:
        """Position-aware base quality per (state, child) slot, one table
        per degree block: the edge ``head(e) -> child`` scored against
        selectivity conditioned on ``owner(e)`` — the predecessor the
        SPNE state already encodes.  Padded slots score zero hits."""
        tok = (fr.round_index, self.world.alpha_generation)
        if fr.q_child is not None and fr.q_child_token == tok:
            return
        world = self.world
        histories = context.histories
        cid, rnd = fr.cid, fr.round_index
        heads = world.nbr_flat.tolist()
        owners = world.owner_flat.tolist()
        nbr_lists = world.nbr_lists
        weights = context.weights
        max_entries = rnd - 1
        q_child = []
        for block in world.blocks:
            width = block.child.shape[1]
            hits: List[int] = []
            extend = hits.extend
            for e in block.states.tolist():
                lst = nbr_lists[heads[e]]
                extend(
                    histories[heads[e]].selectivity_hits_block_pos(
                        cid, owners[e], lst, rnd
                    )
                )
                extend([0] * (width - len(lst)))
            if max_entries == 0:
                sigma = np.zeros(block.child.shape, dtype=np.float64)
            else:
                sigma = np.minimum(
                    1.0,
                    np.asarray(hits, dtype=np.float64).reshape(block.child.shape)
                    / max_entries,
                )
            q = (
                weights.selectivity * sigma
                + weights.availability * world.alpha_flat[block.child]
            )
            q_child.append(np.minimum(1.0, np.maximum(0.0, q)))
        fr.q_child = q_child
        fr.q_child_token = tok
        PERF.kernel_calls += 1
        PERF.kernel_batch_elements += world.n_children
        PERF.edges_scored += world.n_children

    def _pos_q(
        self, fr: Frontier, context: "ForwardingContext", node_id: int, predecessor: int
    ) -> np.ndarray:
        """Root-decision quality slice for ``node_id`` conditioned on the
        actual ``predecessor``.  Computed directly from the node's own
        candidate list — the edge ``predecessor -> node`` need not exist
        in the CSR (neighbour sets are not symmetric), so this cannot be
        a ``q_child`` lookup."""
        key = (node_id, predecessor)
        cached = fr.pos_q_cache.get(key)
        if cached is not None:
            return cached
        world = self.world
        start = int(world.indptr[node_id])
        end = int(world.indptr[node_id + 1])
        nbrs = world.nbr_lists[node_id]
        hits = context.histories[node_id].selectivity_hits_block_pos(
            fr.cid, predecessor, nbrs, fr.round_index
        )
        max_entries = fr.round_index - 1
        if max_entries == 0:
            sigma = np.zeros(end - start, dtype=np.float64)
        else:
            sigma = np.minimum(
                1.0, np.asarray(hits, dtype=np.float64) / max_entries
            )
        weights = context.weights
        q = (
            weights.selectivity * sigma
            + weights.availability * world.alpha_flat[start:end]
        )
        q = np.minimum(1.0, np.maximum(0.0, q))
        fr.pos_q_cache[key] = q
        PERF.kernel_calls += 1
        PERF.kernel_batch_elements += end - start
        PERF.edges_scored += end - start
        return q

    # -- SPNE value tables ---------------------------------------------------
    def _ensure_levels(
        self,
        fr: Frontier,
        context: "ForwardingContext",
        depth: int,
        position_aware: bool,
    ) -> None:
        """Level-batched backward induction: ``levels_sum[d][e]`` /
        ``levels_n[d][e]`` are the scalar memo's ``(best_sum, best_n)``
        for state ``e`` with ``d`` edges of lookahead left."""
        world = self.world
        tok = (
            fr.round_index,
            world.alpha_generation,
            fr.liveness_token,
            position_aware,
        )
        if fr.levels_sum is None or fr.levels_token != tok:
            self._reset_levels(fr)
            fr.levels_token = tok
        if len(fr.levels_sum) > depth:
            return
        if not world.blocks:
            while len(fr.levels_sum) <= depth:
                fr.levels_sum.append(fr.levels_sum[0])
                fr.levels_n.append(fr.levels_n[0])
            return
        # q_child is already laid out per block; the per-edge row gathers
        # through each block's child table.
        if position_aware:
            bases = fr.q_child
        else:
            q_flat = fr.q_flat
            assert q_flat is not None
            bases = [q_flat[block.child] for block in world.blocks]
        perf = PERF
        while len(fr.levels_sum) <= depth:
            new_sum, new_n = self._level_step(fr, bases)
            fr.levels_sum.append(new_sum)
            fr.levels_n.append(new_n)
            perf.kernel_calls += 1
            perf.kernel_batch_elements += world.n_children

    def _reset_levels(self, fr: Frontier) -> None:
        """Start a fresh level stack (level 0 = all zeros).  Overridden
        by the sharded planner to place levels in shared memory."""
        n_edges = self.world.n_edges
        fr.levels_sum = [np.zeros(n_edges, dtype=np.float64)]
        fr.levels_n = [np.zeros(n_edges, dtype=np.int64)]

    def _level_step(
        self, fr: Frontier, bases: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Compute the next level over the whole state axis, one
        :func:`spne_level_step` per degree block; states without
        children read ``(0.0, 0)``."""
        self._ensure_state_valid(fr)
        world = self.world
        n_edges = world.n_edges
        prev_sum, prev_n = fr.levels_sum[-1], fr.levels_n[-1]
        new_sum = np.zeros(n_edges, dtype=np.float64)
        new_n = np.zeros(n_edges, dtype=np.int64)
        for b, block in enumerate(world.blocks):
            # A block that holds every state (the bootstrap overlay's
            # single block) writes the level in place.
            whole = block.states.size == n_edges
            out_sum = new_sum if whole else np.empty(block.states.size)
            out_n = new_n if whole else np.empty(block.states.size, dtype=np.int64)
            spne_level_step(
                bases[b],
                prev_sum,
                prev_n,
                block.child,
                fr.st_valid[b],
                fr.st_dead[b],
                out_sum,
                out_n,
            )
            if not whole:
                new_sum[block.states] = out_sum
                new_n[block.states] = out_n
        return new_sum, new_n

    def _spne_ball(
        self,
        fr: Frontier,
        cand_idx: np.ndarray,
        depth: int,
        position_aware: bool,
        quality: "Optional[Callable[[np.ndarray], np.ndarray]]" = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Demand-driven backward induction: ``(tail_sum, tail_n)`` for the
        states ``cand_idx`` with ``depth`` edges of lookahead left, equal
        bit for bit to ``levels_sum[depth][cand_idx]`` /
        ``levels_n[depth][cand_idx]`` of the full sweep.

        The base quality of a slot is ``fr.q_child``'s under
        position-aware scoring; otherwise ``quality`` maps the slots' edge
        ids to it (:meth:`_ball_quality`), or ``fr.q_flat`` holds it.

        The ball is a positional tree.  Top-down, level ``depth`` holds
        the candidate states, and level ``d - 1`` holds *every* child slot
        of level ``d`` (padded and invalid ones too), group by group in
        row order (:meth:`WorldArrays.block_groups`), so a slot's child
        sits at the slot's own position.  A state reached twice is kept
        twice; both copies compute the same bits.  Only a level with more
        slots than the world has edges (dense or hub-heavy worlds) is
        deduplicated: each distinct state is kept once and the slots point
        at it.  Once every level's block rows are gathered,
        :func:`spne_state_validity` runs once per degree block and the
        base quality once over all slots.  Bottom-up,
        :func:`spne_level_step` runs over each group of rows.  Invalid
        and padded slots are masked out of the maximum, and a state with
        no valid child is zeroed through ``st_dead``.  A state without
        children is in no group and reads ``(0.0, 0)``, as level 0 does.
        """
        world = self.world
        blocks = world.blocks
        # Top-down: each level's state count, its block groups and the
        # place of each slot's child in the level below (``None``: the
        # slot's own position).
        tree = []
        block_rows: Dict[int, List[np.ndarray]] = {}
        states = cand_idx
        for d in range(depth, 0, -1):
            groups = []
            for b, at, rows in world.block_groups(states):
                parts = block_rows.setdefault(b, [])
                lo = sum(part.size for part in parts)
                parts.append(rows)
                groups.append(_BallRows(b, at, lo, blocks[b].child[rows]))
            n_states = states.size
            if d == 1 or not groups:
                # Level 0 is one zero state that every slot reads.
                n_slots = sum(g.child.size for g in groups)
                tree.append((n_states, groups, np.zeros(n_slots, dtype=np.int64)))
                break
            if len(groups) == 1:
                states = groups[0].child.ravel()
            else:
                states = np.concatenate([g.child.ravel() for g in groups])
            below = None
            if states.size > world.n_edges:
                states, below = np.unique(states, return_inverse=True)
            tree.append((n_states, groups, below))
        # Every level at once: one validity pass per degree block, and one
        # quality call over all slots.
        masks = {}
        bases = []
        for b, parts in block_rows.items():
            block = blocks[b]
            rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
            child = block.child[rows]
            real = block.real[rows]
            masks[b] = (real,) + spne_state_validity(
                fr.valid0, child, real, block.not_pred[rows]
            )
            bases.append(fr.q_child[b][rows] if position_aware else child)
        if not position_aware:
            if quality is None:
                assert fr.q_flat is not None
                quality = fr.q_flat.__getitem__
            if len(bases) == 1:
                bases = [quality(bases[0])]
            elif bases:
                flat = quality(np.concatenate([child.ravel() for child in bases]))
                ends = np.cumsum([child.size for child in bases]).tolist()
                bases = [
                    flat[end - child.size : end].reshape(child.shape)
                    for child, end in zip(bases, ends)
                ]
        base_of = dict(zip(block_rows, bases))
        # Bottom-up.
        prev_sum = np.zeros(1, dtype=np.float64)
        prev_n = np.zeros(1, dtype=np.int64)
        perf = PERF
        for n_states, groups, below in reversed(tree):
            out_sum = np.zeros(n_states, dtype=np.float64)
            out_n = np.zeros(n_states, dtype=np.int64)
            slot = n_children = 0
            for g in groups:
                base = base_of[g.block]
                real, valid, dead = masks[g.block]
                n_rows = g.child.shape[0]
                rows = slice(g.lo, g.lo + n_rows)
                end = slot + g.child.size
                if below is None:
                    child = np.arange(slot, end, dtype=np.int64)
                else:
                    child = below[slot:end]
                slot = end
                if g.at is None:
                    part_sum, part_n = out_sum, out_n
                else:
                    part_sum = np.empty(n_rows, dtype=np.float64)
                    part_n = np.empty(n_rows, dtype=np.int64)
                spne_level_step(
                    base[rows], prev_sum, prev_n, child.reshape(g.child.shape),
                    valid[rows], dead[rows], part_sum, part_n,
                )
                if g.at is not None:
                    out_sum[g.at] = part_sum
                    out_n[g.at] = part_n
                n_children += int(np.count_nonzero(real[rows]))
            prev_sum, prev_n = out_sum, out_n
            perf.kernel_calls += 1
            perf.kernel_batch_elements += n_children
        perf.spne_ball_sweeps += 1
        return prev_sum, prev_n

    # -- candidates & the pick ---------------------------------------------
    def _candidates(
        self, fr: Frontier, node_id: int, predecessor: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(flat edge indices, neighbour ids) of the candidate set, in
        ascending-id order — the scalar ``candidates()`` semantics."""
        world = self.world
        start = int(world.indptr[node_id])
        end = int(world.indptr[node_id + 1])
        ids = world.nbr_flat[start:end]
        valid = fr.valid0[start:end]
        if predecessor is not None:
            without_pred = valid & (ids != predecessor)
            if without_pred.any():
                valid = without_pred
        rel = np.nonzero(valid)[0]
        return rel + start, ids[rel]

    def _root_quality(
        self,
        fr: Frontier,
        context: "ForwardingContext",
        node_id: int,
        predecessor: Optional[int],
        cand_idx: np.ndarray,
    ) -> np.ndarray:
        """``q(node, candidate)`` per candidate, against the actual
        predecessor under position-aware selectivity."""
        sel_pred = context.selectivity_predecessor(predecessor)
        if sel_pred is None:
            self._ensure_q_node(fr, context, node_id)
            assert fr.q_flat is not None
            return fr.q_flat[cand_idx]
        start = int(self.world.indptr[node_id])
        return self._pos_q(fr, context, node_id, sel_pred)[cand_idx - start]

    def _pick(
        self,
        strategy,
        node,
        context: "ForwardingContext",
        cand_ids: np.ndarray,
        qualities: List[float],
        utility,
    ) -> Optional[int]:
        """The scalar lane's pick over the batched qualities: score each
        candidate with ``utility`` in candidate order, then take the
        ``(u, q, -id)`` maximum.

        ``decision_cost`` may draw a lazy per-link bandwidth sample from
        the shared RNG on first use, so it is called here exactly as the
        scalar strategies call it: once per candidate, in candidate order.
        """
        contract = context.contract
        decision_cost = context.cost_model.decision_cost
        payload = contract.payload_size
        node_id = node.node_id
        participation_cost = node.participation_cost
        scored = [
            (
                utility(
                    contract,
                    q,
                    decision_cost(participation_cost, node_id, nbr, payload),
                ),
                q,
                nbr,
            )
            for nbr, q in zip(cand_ids.tolist(), qualities)
        ]
        PERF.utility_evaluations += len(scored)
        PERF.kernel_calls += 1
        PERF.kernel_batch_elements += len(scored)
        best = argmax_with_quality_tiebreak(scored)
        if best is None or best[0] < strategy.participation_threshold:
            return None
        return best[2]

    # -- decisions ----------------------------------------------------------
    def decide_model1(
        self, strategy, node, predecessor: Optional[int], context: "ForwardingContext"
    ) -> Optional[int]:
        """Batched Utility Model I: candidate set and root qualities from
        the arrays, then the scalar pick."""
        node_id = node.node_id
        fr = self._frontier(context)
        self._ensure_liveness(fr, context)
        cand_idx, cand_ids = self._candidates(fr, node_id, predecessor)
        if cand_ids.size == 0:
            return None
        q = self._root_quality(fr, context, node_id, predecessor, cand_idx)
        return self._pick(
            strategy, node, context, cand_ids, q.tolist(), forwarder_utility_model1
        )

    def decide_model2(
        self, strategy, node, predecessor: Optional[int], context: "ForwardingContext"
    ) -> Optional[int]:
        """Batched Utility Model II: level-synchronous backward induction
        over edge states — the decision's own lookahead ball on large
        worlds, the cached whole state axis otherwise — then the scalar
        pick over the candidates' path qualities."""
        node_id = node.node_id
        fr = self._frontier(context)
        self._ensure_liveness(fr, context)
        cand_idx, cand_ids = self._candidates(fr, node_id, predecessor)
        if cand_ids.size == 0:
            return None
        position_aware = context.position_aware_selectivity
        depth = strategy.lookahead
        world = self.world
        # The ball's child entries per level are bounded by this; the full
        # sweep's per-level cost (the real children, never the padded
        # slots) is shared by the few decisions of a round.
        ball_bound = cand_idx.size * world.max_out_degree ** depth
        quality = None
        if position_aware:
            self._ensure_q_child(fr, context)
        if ball_bound * SPNE_BALL_MIN_RATIO <= world.n_children:
            if not position_aware:
                quality = self._ball_quality(fr, context)
            tail_sum, tail_n = self._spne_ball(
                fr, cand_idx, depth, position_aware, quality
            )
        else:
            if not position_aware:
                self._ensure_full_rows(fr, context)
            self._ensure_levels(fr, context, depth, position_aware)
            assert fr.levels_sum is not None and fr.levels_n is not None
            tail_sum = fr.levels_sum[depth][cand_idx]
            tail_n = fr.levels_n[depth][cand_idx]
        if quality is None:
            q_root = self._root_quality(fr, context, node_id, predecessor, cand_idx)
        else:
            q_root = quality(cand_idx)
        # Terminal delivery edge (quality 1) appended, then normalised —
        # the scalar path_quality_through expression, op for op (the
        # integer count converts to float64 exactly).
        path_q = (q_root + tail_sum + 1.0) / (tail_n + 2)
        return self._pick(
            strategy, node, context, cand_ids, path_q.tolist(),
            forwarder_utility_model2,
        )
