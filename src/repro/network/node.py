"""Peer node state: neighbour set, observed session times, availability.

Implements the node-local part of §2.3 ("Availability of neighbors"):

- when a peer joins, it initialises the observed session time of each
  neighbour to 0;
- at each probing period ``T`` a live neighbour's counter grows by ``T``;
- a newly discovered neighbour starts at ``rand(0, T)``;
- availability of neighbour ``u`` is the *normalised* counter
  ``alpha(u) = t_s(u) / sum_v t_s(v)``.

The normalisation is the routing hot path's per-candidate cost: edge
scoring consults ``alpha`` for every candidate of every hop, and a naive
implementation re-sums the whole neighbour set each time (O(d) per
lookup, O(d^2) per decision).  :class:`PeerNode` therefore caches the
normalised vector and invalidates it with a dirty flag whenever a
counter or the neighbour set changes; every mutation path — probe
credits, direct ``session_time`` assignment, neighbour add/remove/reset,
and the overlay's fast-sweep log — funnels through the invalidation, so
the cache can never go stale.

**Lazy sweep credits.**  A whole-population fast sweep
(:func:`repro.network.probing.fast_full_sweep`) does not touch the
views: it appends ``(period, now)`` to the overlay's sweep log, which
every member node follows.  A node applies the entries it has not yet
applied — ``session_time += period`` and ``last_seen = now`` per view,
in log order, one ``availability_version`` step and a dirty flag per
entry — before any read or write of its views: its own methods,
:attr:`PeerNode.neighbors`, :attr:`PeerNode.availability_version` and
the :class:`NeighborView` properties.  So every observer sees exactly
the values an eager per-view credit would have left, and a sweep costs
O(1) per node it never reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.monitoring import PERF


class NodeState(enum.Enum):
    """Lifecycle state of a peer."""

    ONLINE = "online"
    OFFLINE = "offline"  # between sessions; may come back
    DEPARTED = "departed"  # left the system for good


class NeighborView:
    """What a node knows about one neighbour.

    ``session_time`` and ``last_seen`` are properties so that *any*
    access goes through the owning :class:`PeerNode`: a read or write
    first applies the node's pending sweep credits, and a
    ``session_time`` write — including direct assignment from tests or
    external estimators — invalidates the node's cached availability
    normalisation.
    """

    __slots__ = ("node_id", "_last_seen", "_session_time", "_owner")

    def __init__(
        self,
        node_id: int,
        session_time: float = 0.0,
        last_seen: Optional[float] = None,
    ):
        self.node_id = node_id
        self._last_seen = last_seen
        self._owner: Optional[PeerNode] = None
        if session_time < 0:
            raise ValueError(f"negative session_time {session_time}")
        self._session_time = session_time

    def _sync(self) -> None:
        owner = self._owner
        if owner is not None and owner._sweeps_applied != len(owner._sweep_log):
            owner._apply_sweeps()

    @property
    def session_time(self) -> float:
        """Observed cumulative session time (probing counter), minutes."""
        self._sync()
        return self._session_time

    @session_time.setter
    def session_time(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative session_time {value}")
        self._sync()
        self._session_time = value
        if self._owner is not None:
            self._owner._invalidate_availability()

    @property
    def last_seen(self) -> Optional[float]:
        """Simulation time of the last successful probe (None = never probed)."""
        self._sync()
        return self._last_seen

    @last_seen.setter
    def last_seen(self, value: Optional[float]) -> None:
        self._sync()
        self._last_seen = value

    def __repr__(self) -> str:
        return (
            f"NeighborView(node_id={self.node_id}, "
            f"session_time={self.session_time}, last_seen={self.last_seen})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, NeighborView):
            return NotImplemented
        return (
            self.node_id == other.node_id
            and self.session_time == other.session_time
            and self.last_seen == other.last_seen
        )


@dataclass(eq=False, slots=True)
class PeerNode:
    """A peer in the anonymity overlay.

    The node is deliberately *passive*: routing strategies, probers and the
    churn process act on it.  It owns only local knowledge — its neighbour
    set and the observed availability counters.  Nodes compare by identity:
    a field-wise ``==`` would read views with sweep credits not yet applied.
    Slotted (no per-instance ``__dict__``): a large overlay holds one
    node per peer.
    """

    node_id: int
    #: Target neighbour-set size ``d`` (paper default 5).
    degree: int = 5
    state: NodeState = NodeState.OFFLINE
    #: True if the node is an adversary (routes randomly; see §2.4).
    malicious: bool = False
    #: Per-session participation cost ``C^p``.
    participation_cost: float = 1.0
    #: Neighbour id -> view, read through :attr:`neighbors`.
    _neighbors: Dict[int, NeighborView] = field(
        default_factory=dict, init=False, repr=False
    )
    #: --- availability cache (see module docstring) ---------------------
    _avail_dirty: bool = field(default=True, repr=False)
    _avail_vector: Dict[int, float] = field(default_factory=dict, repr=False)
    #: Monotonic change counters consumed by array-backed views
    #: (:class:`repro.core.kernels.WorldArrays`): ``availability_version``
    #: advances on *any* invalidation (probe credits, sweep-log entries,
    #: direct counter writes, neighbour-set changes); ``neighbors_version``
    #: advances only when the neighbour *set* itself changes.  Observers
    #: compare a remembered version against the current one to decide
    #: whether their derived arrays are stale — the versions never wrap or
    #: reset.
    _availability_version: int = field(default=0, init=False, repr=False)
    neighbors_version: int = field(default=0, repr=False)
    #: The overlay's fast-sweep log this node follows (``(period, now)``
    #: per sweep) and how many of its entries the views already hold.
    _sweep_log: Sequence[Tuple[float, float]] = field(
        default=(), init=False, repr=False
    )
    _sweeps_applied: int = field(default=0, init=False, repr=False)
    #: Optional push notification for neighbour-*set* changes, fired on
    #: every ``neighbors_version`` bump.  :class:`repro.network.overlay.
    #: Overlay` wires this to its aggregate ``topology_version`` so
    #: array-backed views can answer "did any neighbour set change?" in
    #: O(1) instead of scanning every node's ``neighbors_version``.
    _topology_listener: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )
    #: The same push for every ``availability_version`` bump except the
    #: sweep-log ones, which the overlay counts once per sweep.
    _availability_listener: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )

    # -- lazy sweep credits (see module docstring) ---------------------------
    @property
    def neighbors(self) -> Dict[int, NeighborView]:
        """Neighbour id -> :class:`NeighborView`, sweep credits applied.

        Treat the mapping as read-only: change the set through
        :meth:`set_neighbors`, :meth:`add_neighbor` and
        :meth:`remove_neighbor`."""
        if self._sweeps_applied != len(self._sweep_log):
            self._apply_sweeps()
        return self._neighbors

    @property
    def availability_version(self) -> int:
        """The availability change counter, sweep credits applied."""
        if self._sweeps_applied != len(self._sweep_log):
            self._apply_sweeps()
        return self._availability_version

    def follow_sweep_log(self, log: Sequence[Tuple[float, float]]) -> None:
        """Follow ``log`` from its current end: entries already in it
        belong to sweeps this node was not part of."""
        if log is not self._sweep_log:
            self._apply_sweeps()
            self._sweep_log = log
            self._sweeps_applied = len(log)

    def _apply_sweeps(self) -> None:
        """Apply the sweep-log entries not yet applied, as the eager
        per-view credit would have, one entry after the other."""
        log = self._sweep_log
        done = self._sweeps_applied
        if done == len(log):
            return
        pending = log[done:]
        self._sweeps_applied = len(log)
        views = self._neighbors.values()
        for period, now in pending:
            for view in views:
                view._session_time += period
                view._last_seen = now
        self._avail_dirty = True
        self._availability_version += len(pending)

    # -- lifecycle -------------------------------------------------------
    @property
    def is_online(self) -> bool:
        return self.state is NodeState.ONLINE

    def go_online(self) -> None:
        """Start a session."""
        if self.state is NodeState.DEPARTED:
            raise RuntimeError(f"node {self.node_id} departed; cannot rejoin")
        if self.state is NodeState.ONLINE:
            raise RuntimeError(f"node {self.node_id} already online")
        self.state = NodeState.ONLINE

    def go_offline(self) -> None:
        """End the current session."""
        if self.state is not NodeState.ONLINE:
            raise RuntimeError(f"node {self.node_id} is not online")
        self.state = NodeState.OFFLINE

    def depart(self) -> None:
        """Leave the system permanently (final departure)."""
        self.state = NodeState.DEPARTED

    # -- neighbour management ---------------------------------------------
    def _invalidate_availability(self) -> None:
        self._avail_dirty = True
        self._availability_version += 1
        if self._availability_listener is not None:
            self._availability_listener()

    def _bump_neighbors_version(self) -> None:
        self.neighbors_version += 1
        if self._topology_listener is not None:
            self._topology_listener()

    def _adopt_view(self, view: NeighborView) -> NeighborView:
        view._owner = self
        return view

    def set_neighbors(self, node_ids: Iterable[int]) -> None:
        """Install a fresh neighbour set, all counters reset to 0 (§2.3)."""
        ids = list(node_ids)
        if self.node_id in ids:
            raise ValueError("a node cannot neighbour itself")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate neighbour ids")
        self._apply_sweeps()
        self._neighbors = {i: self._adopt_view(NeighborView(node_id=i)) for i in ids}
        self._bump_neighbors_version()
        self._invalidate_availability()

    def add_neighbor(self, node_id: int, initial_session_time: float = 0.0) -> None:
        """Discover a new neighbour (counter starts at ``rand(0,T)`` per §2.3)."""
        if node_id == self.node_id:
            raise ValueError("a node cannot neighbour itself")
        if node_id in self.neighbors:
            raise ValueError(f"{node_id} already a neighbour of {self.node_id}")
        self._neighbors[node_id] = self._adopt_view(
            NeighborView(node_id=node_id, session_time=initial_session_time)
        )
        self._bump_neighbors_version()
        self._invalidate_availability()

    def remove_neighbor(self, node_id: int) -> None:
        if node_id not in self.neighbors:
            raise KeyError(f"{node_id} is not a neighbour of {self.node_id}")
        del self._neighbors[node_id]
        self._bump_neighbors_version()
        self._invalidate_availability()

    def neighbor_ids(self) -> List[int]:
        return list(self._neighbors)

    def credit_session_time(
        self, neighbor_id: int, delta: float, now: Optional[float] = None
    ) -> None:
        """Probe bookkeeping: grow a live neighbour's counter by ``delta``
        (the probing period ``T``) and stamp ``last_seen``.

        The prober's per-period update path (the slow sweep's, once per
        live neighbour); the cached availability normalisation is
        invalidated exactly once per credit.
        """
        if delta < 0:
            raise ValueError(f"negative probe credit {delta}")
        view = self.neighbors.get(neighbor_id)
        if view is None:
            raise KeyError(f"{neighbor_id} is not a neighbour of {self.node_id}")
        view._session_time += delta
        if now is not None:
            view._last_seen = now
        self._invalidate_availability()

    def credit_session_times(
        self, neighbor_ids: Iterable[int], delta: float, now: Optional[float] = None
    ) -> None:
        """Batched probe bookkeeping: grow several live neighbours'
        counters by ``delta`` with a *single* cache invalidation.

        Per-view float updates are the same ``+= delta`` the per-call
        path performs (bit-identical counters); only the invalidation is
        coalesced, which the dirty flag makes equivalent to invalidating
        after every write.  Membership is validated before any counter
        moves, so a bad id leaves the node untouched.
        """
        if delta < 0:
            raise ValueError(f"negative probe credit {delta}")
        views = []
        for neighbor_id in neighbor_ids:
            view = self.neighbors.get(neighbor_id)
            if view is None:
                raise KeyError(
                    f"{neighbor_id} is not a neighbour of {self.node_id}"
                )
            views.append(view)
        for view in views:
            view._session_time += delta
            if now is not None:
                view._last_seen = now
        if views:
            self._invalidate_availability()

    # -- availability estimate (§2.3) --------------------------------------
    def _refresh_availability(self) -> Dict[int, float]:
        """Rebuild the cached ``id -> alpha`` normalisation (O(d))."""
        neighbors = self.neighbors
        total = 0.0
        for v in neighbors.values():
            total += v._session_time
        if total <= 0.0:
            self._avail_vector = {i: 0.0 for i in neighbors}
        else:
            self._avail_vector = {
                i: v._session_time / total for i, v in neighbors.items()
            }
        self._avail_dirty = False
        return self._avail_vector

    def availability(self, neighbor_id: int) -> float:
        """Estimated availability ``alpha(u)`` of one neighbour.

        Normalised observed session time over the whole neighbour set; in
        ``[0, 1]`` and summing to 1 across neighbours (0 everywhere if no
        probe has completed yet).  Served from the cached normalisation
        (O(1) after the first lookup since the last counter change).
        """
        if neighbor_id not in self.neighbors:
            raise KeyError(f"{neighbor_id} is not a neighbour of {self.node_id}")
        return self.availability_vector()[neighbor_id]

    def availability_vector(self) -> Dict[int, float]:
        """Estimated availability of every neighbour (id -> alpha).

        Returns the cached normalisation, rebuilt lazily after any counter
        or neighbour-set change.  Callers must treat the mapping as
        **read-only** — it is shared until the next invalidation (the
        routing layer only ever does ``.get`` lookups on it).
        """
        if self._sweeps_applied != len(self._sweep_log):
            self._apply_sweeps()
        if self._avail_dirty:
            PERF.availability_cache_misses += 1
            return self._refresh_availability()
        PERF.availability_cache_hits += 1
        return self._avail_vector

    def __repr__(self) -> str:
        flag = "M" if self.malicious else "g"
        return (
            f"PeerNode({self.node_id}, {self.state.value}, {flag}, "
            f"d={len(self._neighbors)})"
        )
