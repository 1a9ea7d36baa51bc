"""Gossip-based membership: decentralised peer discovery.

The overlay's default discovery (:meth:`Overlay.random_online_peer`) is
an oracle — it samples the true online population, standing in for the
bootstrap service the paper's technical report would specify.  This
module provides the decentralised alternative real P2P deployments use:
a **partial-view shuffle** protocol in the Cyclon family.

Each node keeps a bounded view of (peer id, age) descriptors.  Every
gossip round a node:

1. ages its descriptors;
2. picks its *oldest* descriptor as the shuffle partner (old entries are
   the most likely stale, so they get verified or dropped first);
3. exchanges a random half of its view with the partner (each inserts
   the received descriptors with age 0, evicting its oldest entries);
4. drops the partner descriptor if the partner turned out offline
   (failure detection).

Sampling from the view replaces oracle sampling: the prober can draw
neighbour replacements from its node's partial view, making discovery
fully decentralised.  The tests measure the two properties that matter:
views converge to mostly-live entries under churn, and view sampling is
close enough to uniform for the availability estimator to work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.network.overlay import Overlay


@dataclass
class Descriptor:
    """One partial-view entry."""

    node_id: int
    age: int = 0


@dataclass
class PartialView:
    """A bounded, aged view of known peers for one node."""

    owner: int
    capacity: int = 10
    entries: Dict[int, Descriptor] = field(default_factory=dict)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")

    def insert(self, node_id: int, age: int = 0) -> None:
        """Add/refresh a descriptor, evicting the oldest when full."""
        if node_id == self.owner:
            return
        existing = self.entries.get(node_id)
        if existing is not None:
            existing.age = min(existing.age, age)
            return
        if len(self.entries) >= self.capacity:
            oldest = max(self.entries.values(), key=lambda d: (d.age, d.node_id))
            del self.entries[oldest.node_id]
        self.entries[node_id] = Descriptor(node_id=node_id, age=age)

    def remove(self, node_id: int) -> None:
        self.entries.pop(node_id, None)

    def age_all(self) -> None:
        for d in self.entries.values():
            d.age += 1

    def oldest_peer(self) -> Optional[int]:
        if not self.entries:
            return None
        return max(self.entries.values(), key=lambda d: (d.age, d.node_id)).node_id

    def sample(self, k: int, rng: np.random.Generator, exclude=()) -> List[int]:
        """Up to ``k`` distinct random peers from the view."""
        pool = sorted(set(self.entries) - set(exclude))
        if not pool or k < 1:
            return []
        k = min(k, len(pool))
        picked = rng.choice(pool, size=k, replace=False)
        return [int(x) for x in picked]

    def ids(self) -> List[int]:
        return sorted(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class GossipMembership:
    """The shuffle protocol over all nodes' partial views."""

    overlay: Overlay
    rng: np.random.Generator
    view_capacity: int = 10
    shuffle_size: int = 4
    views: Dict[int, PartialView] = field(default_factory=dict)
    rounds_run: int = 0

    def __post_init__(self):
        if self.shuffle_size < 1:
            raise ValueError(f"shuffle_size must be >= 1, got {self.shuffle_size}")

    def view_of(self, node_id: int) -> PartialView:
        view = self.views.get(node_id)
        if view is None:
            view = PartialView(owner=node_id, capacity=self.view_capacity)
            self.views[node_id] = view
        return view

    def bootstrap_from_neighbors(self) -> None:
        """Seed every node's view with its current neighbour set."""
        for node in self.overlay.nodes.values():
            view = self.view_of(node.node_id)
            for nbr in node.neighbor_ids():
                view.insert(nbr)

    def _shuffle_pair(self, a: int, b: int) -> None:
        """One bidirectional view exchange between nodes a and b.

        Descriptors keep their age across the exchange (Cyclon): only a
        *direct* contact proves liveness and resets age to 0.  Forwarded
        hearsay stays old, so stale entries keep rising to "oldest" and
        get verified or purged.
        """
        va, vb = self.view_of(a), self.view_of(b)
        sent = va.sample(self.shuffle_size, self.rng, exclude=(b,))
        reply = vb.sample(self.shuffle_size, self.rng, exclude=(a,))
        for nid in reply:
            va.insert(nid, age=vb.entries[nid].age if nid in vb.entries else 0)
        for nid in sent:
            vb.insert(nid, age=va.entries[nid].age if nid in va.entries else 0)
        # The exchange itself proves mutual liveness.
        va.insert(b, age=0)
        vb.insert(a, age=0)

    def run_round(self) -> dict:
        """One gossip round over all online nodes.  Returns stats."""
        contacted = failed = 0
        for node_id in self.overlay.online_ids():
            view = self.view_of(node_id)
            view.age_all()
            # The node probes its neighbours anyway (§2.3), so live
            # neighbours are free, verified view entries — this also
            # seeds the views of late joiners.
            for nbr in self.overlay.nodes[node_id].neighbor_ids():
                if self.overlay.is_online(nbr):
                    view.insert(nbr, age=0)
            partner = view.oldest_peer()
            if partner is None:
                continue
            if not self.overlay.is_online(partner):
                view.remove(partner)  # failure detection
                failed += 1
                continue
            self._shuffle_pair(node_id, partner)
            contacted += 1
        self.rounds_run += 1
        return {"contacted": contacted, "failed": failed}

    # -- discovery API (drop-in for the overlay oracle) ------------------
    def discover(self, node_id: int, exclude=()) -> Optional[int]:
        """A random *live* peer from the node's own partial view.

        Unlike the oracle, this may return None even when live peers
        exist (the view is partial) and never consults global state.
        """
        view = self.view_of(node_id)
        candidates = view.sample(len(view), self.rng, exclude=(node_id, *exclude))
        for candidate in candidates:
            if self.overlay.is_online(candidate):
                return candidate
            view.remove(candidate)
        return None

    # -- health metrics ---------------------------------------------------
    def reach(self) -> float:
        """Fraction of live (node, peer) pairs connected through the
        transitive closure of views — 1.0 means gossip keeps the overlay
        connected."""
        online = self.overlay.online_ids()
        if len(online) < 2:
            return 1.0
        index = {nid: i for i, nid in enumerate(online)}
        adj: List[List[int]] = [[] for _ in online]
        for nid in online:
            for peer in self.view_of(nid).ids():
                if peer in index:
                    adj[index[nid]].append(index[peer])
        # BFS from node 0's component, treating views as undirected links.
        undirected: List[set] = [set() for _ in online]
        for i, outs in enumerate(adj):
            for j in outs:
                undirected[i].add(j)
                undirected[j].add(i)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for j in undirected[i]:
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        return len(seen) / len(online)
