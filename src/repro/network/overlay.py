"""The overlay population: membership, neighbour assignment, discovery.

The overlay is the shared ground truth the per-node processes act on.  It
owns the id space, the online set and the membership trace; it also
provides the *discovery service* a real P2P system would implement with a
bootstrap/rendezvous mechanism: sampling random online peers to (re)fill a
neighbour set.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.network.node import NodeState, PeerNode
from repro.network.trace import NetworkTrace


@dataclass
class Overlay:
    """Population of :class:`PeerNode` with join/leave bookkeeping.

    Parameters
    ----------
    rng:
        Source of randomness for neighbour sampling and discovery.
    degree:
        Neighbour-set size ``d`` each node maintains (paper default 5).
    """

    rng: np.random.Generator
    degree: int = 5
    nodes: Dict[int, PeerNode] = field(default_factory=dict)
    trace: NetworkTrace = field(default_factory=NetworkTrace)
    _online: Set[int] = field(default_factory=set)
    _next_id: int = 0
    #: Monotonic counter advanced on every online-set change (join /
    #: leave / depart).  Array-backed views
    #: (:class:`repro.core.kernels.WorldArrays`) and per-attempt liveness
    #: snapshots compare a remembered value against this to detect
    #: mid-round churn (e.g. an injected forwarder crash) without
    #: re-reading the whole online set.
    liveness_version: int = field(default=0, repr=False)
    #: Monotonic counter advanced whenever *any* member node's neighbour
    #: set changes (pushed by ``PeerNode._topology_listener``, wired at
    #: :meth:`spawn_node`).  Lets array-backed views answer "is my CSR
    #: topology stale?" in O(1); nodes inserted into ``nodes`` without
    #: going through :meth:`spawn_node` are not wired, which observers
    #: must detect (:meth:`repro.core.kernels.WorldArrays` falls back to
    #: the per-node version scan unless every snapshot node was wired).
    topology_version: int = field(default=0, repr=False)
    #: The same for availability invalidations (probe credits, counter
    #: writes, neighbour-set changes), pushed by ``_availability_listener``,
    #: plus one per member node for each fast sweep (:meth:`log_fast_sweep`).
    availability_version: int = field(default=0, repr=False)
    #: One ``(period, now)`` per fast sweep.  Every node brought online here
    #: follows it and applies the credits it has not yet applied before any
    #: access to its views (:class:`repro.network.node.PeerNode`).
    _sweep_log: List[Tuple[float, float]] = field(
        default_factory=list, repr=False, compare=False
    )
    _sweep_listeners: List["weakref.WeakMethod"] = field(
        default_factory=list, repr=False, compare=False
    )
    #: :func:`repro.network.probing.fast_full_sweep`'s last eligible scan:
    #: ``((topology_version, len(nodes), _next_id), alive)``, kept only
    #: when every node was wired to :meth:`_on_topology_change`.
    _sweep_check: Optional[Tuple[Tuple[int, int, int], int]] = field(
        default=None, repr=False, compare=False
    )
    #: Sorted online-id array cache backing :meth:`sample_peers`
    #: (rebuilt when ``liveness_version`` moves).
    _online_array: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _online_array_version: int = field(default=-1, repr=False, compare=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        # One bound method per listener, shared by every spawned node.
        self._listeners = (self._on_topology_change, self._on_availability_change)

    def __getstate__(self) -> dict:
        # Weak references do not pickle; a copy has no live views anyway.
        return {**self.__dict__, "_sweep_listeners": []}

    def _on_topology_change(self) -> None:
        self.topology_version += 1

    def _on_availability_change(self) -> None:
        self.availability_version += 1

    def log_fast_sweep(self, period: float, now: float) -> None:
        """Credit every neighbour view of every member node by ``period``
        and stamp it seen at ``now``, lazily: the entry is applied by each
        node on its next access, and the aggregate ``availability_version``
        takes the one bump per node that those applications stand for."""
        self._sweep_log.append((period, now))
        self.availability_version += len(self.nodes)

    def add_sweep_listener(self, listener: Callable[[float], None]) -> None:
        """Call the bound method ``listener`` (held weakly) with
        ``period`` after each fast sweep, which credits every neighbour
        view by ``period`` and invalidates each node exactly once."""
        self._sweep_listeners.append(weakref.WeakMethod(listener))

    def notify_fast_sweep(self, period: float) -> None:
        """Tell every live sweep listener that a fast sweep just ran."""
        live = []
        for ref in self._sweep_listeners:
            listener = ref()
            if listener is not None:
                listener(period)
                live.append(ref)
        self._sweep_listeners = live

    # -- population construction ----------------------------------------
    def spawn_node(
        self,
        malicious: bool = False,
        participation_cost: float = 1.0,
    ) -> PeerNode:
        """Create (but do not yet join) a new node with a fresh id."""
        node = PeerNode(
            node_id=self._next_id,
            degree=self.degree,
            malicious=malicious,
            participation_cost=participation_cost,
        )
        node._topology_listener, node._availability_listener = self._listeners
        self._next_id += 1
        self.nodes[node.node_id] = node
        return node

    def bootstrap(
        self,
        n: int,
        now: float = 0.0,
        malicious_fraction: float = 0.0,
        participation_cost: float = 1.0,
    ) -> List[PeerNode]:
        """Create ``n`` nodes, bring them online and wire neighbour sets.

        A fraction ``malicious_fraction`` of the nodes (chosen uniformly at
        random) is flagged as adversarial.  Each node gets ``degree``
        distinct random neighbours (fewer only if the population is too
        small).  The result, and the generator state after it, are those
        of a :meth:`join` per node followed by a :meth:`sample_peers`
        refill of every neighbour set, built from one sorted online array
        rather than one per node.
        """
        if n < 2:
            raise ValueError(f"need at least 2 nodes, got {n}")
        if not 0.0 <= malicious_fraction <= 1.0:
            raise ValueError(f"malicious_fraction out of range: {malicious_fraction}")
        created = [
            self.spawn_node(participation_cost=participation_cost) for _ in range(n)
        ]
        n_bad = int(round(malicious_fraction * n))
        for node in self.rng.choice(created, size=n_bad, replace=False):
            node.malicious = True
        # The wiring a ``join`` per node and then a ``sample_peers`` refill
        # per node would give, drawn on positions: ``Generator.choice(m, k)``
        # consumes the same entropy as ``choice(pool, k)`` for any pool of
        # length m, and returns the positions that call would pick.
        for node in created:
            self._bring_online(node, now)
            m = len(self._online) - 1
            if m > 0:
                # ``join``'s wiring of the newcomer, overwritten below; the
                # draw stays because it advances the generator.
                self.rng.choice(m, size=min(self.degree, m), replace=False)
        arr = self._sorted_online()
        wanted = min(self.degree, arr.size - 1)
        positions = np.searchsorted(arr, [node.node_id for node in created])
        for node, pos in zip(created, positions.tolist()):
            # A position in ``arr`` without ``node`` steps over its slot.
            idx = self.rng.choice(arr.size - 1, size=wanted, replace=False)
            idx[idx >= pos] += 1
            node.set_neighbors(arr[idx].tolist())
        return created

    # -- membership -------------------------------------------------------
    def join(self, node_id: int, now: float) -> None:
        """Bring a node online (start of a session)."""
        node = self.nodes[node_id]
        self._bring_online(node, now)
        if not node.neighbors and len(self._online) > 1:
            wanted = min(self.degree, len(self._online) - 1)
            node.set_neighbors(self.sample_peers(wanted, exclude={node_id}))

    def _bring_online(self, node: PeerNode, now: float) -> None:
        """Session-start bookkeeping shared by :meth:`join` and
        :meth:`bootstrap`; wires no neighbours."""
        node.go_online()
        node.follow_sweep_log(self._sweep_log)
        self._online.add(node.node_id)
        self.liveness_version += 1
        self.trace.join(now, node.node_id)

    def leave(self, node_id: int, now: float) -> None:
        """Take a node offline (end of a session; may rejoin later)."""
        node = self.nodes[node_id]
        node.go_offline()
        self._online.discard(node_id)
        self.liveness_version += 1
        self.trace.leave(now, node_id)

    def depart(self, node_id: int, now: float) -> None:
        """Remove a node permanently (final departure)."""
        node = self.nodes[node_id]
        was_online = node.is_online
        node.depart()
        if was_online:
            self._online.discard(node_id)
            self.liveness_version += 1
            self.trace.depart(now, node_id)

    # -- queries -----------------------------------------------------------
    def is_online(self, node_id: int) -> bool:
        return node_id in self._online

    def online_ids(self) -> List[int]:
        """Ids of all online nodes, sorted for determinism."""
        return sorted(self._online)

    def online_count(self) -> int:
        return len(self._online)

    def id_space(self) -> int:
        """Size of the id space: every node id ever issued is strictly
        below this.  The right ``size`` for :meth:`online_mask` when the
        mask must cover arbitrary neighbour references."""
        return self._next_id

    def online_mask(self, size: int) -> np.ndarray:
        """Boolean liveness vector indexed by node id (``mask[i]`` iff node
        ``i`` is online).  ``size`` must cover the id space the caller
        indexes with; ids at or beyond ``size`` are ignored.  Used by the
        array-backed scoring kernels to vectorise the liveness filter."""
        mask = np.zeros(size, dtype=bool)
        ids = self._sorted_online()
        mask[ids[: np.searchsorted(ids, size)]] = True
        return mask

    def good_nodes(self) -> List[PeerNode]:
        """All non-malicious nodes ever created."""
        return [n for n in self.nodes.values() if not n.malicious]

    def malicious_nodes(self) -> List[PeerNode]:
        return [n for n in self.nodes.values() if n.malicious]

    # -- discovery -----------------------------------------------------------
    def sample_peers(self, k: int, exclude: Optional[Iterable[int]] = None) -> List[int]:
        """``k`` distinct random online peers, excluding ``exclude``.

        Raises if fewer than ``k`` candidates exist — callers decide how to
        degrade (the prober retries next round).
        """
        banned = set(exclude or ())
        arr = self._sorted_online()
        if banned:
            # Same pool the listcomp built (sorted online minus banned),
            # assembled without the O(n) Python loop: locate each banned
            # id by bisection and mask it out.
            ban = np.fromiter(sorted(banned), dtype=np.int64, count=len(banned))
            pos = np.searchsorted(arr, ban)
            in_range = pos < arr.size
            pos = pos[in_range]
            present = arr[pos] == ban[in_range]
            if present.any():
                keep = np.ones(arr.size, dtype=bool)
                keep[pos[present]] = False
                arr = arr[keep]
        if arr.size < k:
            raise ValueError(f"cannot sample {k} peers from pool of {arr.size}")
        # Generator.choice converts a Python list to exactly this int64
        # array before drawing, so handing it the array directly consumes
        # identical entropy and returns identical picks.
        picked = self.rng.choice(arr, size=k, replace=False)
        return picked.tolist()

    def _sorted_online(self) -> np.ndarray:
        """Sorted online ids as an int64 array, cached per liveness epoch."""
        if (
            self._online_array is None
            or self._online_array_version != self.liveness_version
        ):
            arr = np.fromiter(
                self._online, dtype=np.int64, count=len(self._online)
            )
            arr.sort()
            self._online_array = arr
            self._online_array_version = self.liveness_version
        return self._online_array

    def random_online_peer(self, exclude: Optional[Iterable[int]] = None) -> Optional[int]:
        """One random online peer, or None if no candidate exists."""
        try:
            return self.sample_peers(1, exclude=exclude)[0]
        except ValueError:
            return None

    def __len__(self) -> int:
        return len(self.nodes)
