"""Structured overlay topologies.

The paper wires each node to ``d`` uniformly random peers.  Real P2P
deployments exhibit structure — small-world rewiring, preferential
attachment — and the topology shapes both path quality and attack
surface.  This module generates alternative neighbour graphs and
installs them into an :class:`Overlay`:

- ``random`` — the paper's model: every node samples d random peers
  (directed, possibly asymmetric);
- ``regular`` — a random d-regular graph (symmetric neighbour sets);
- ``small-world`` — Watts-Strogatz ring with rewiring;
- ``scale-free`` — Barabási-Albert preferential attachment (hub-heavy,
  the worst case for availability attacks: hubs are natural targets).

Only the three graph topologies need networkx, and they import it when
called: a run on the paper's ``random`` topology never loads it, which
keeps about 15 MB of resident memory out of every scenario process.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.network.overlay import Overlay

TOPOLOGIES = ("random", "regular", "small-world", "scale-free")


def build_topology(
    kind: str, n: int, degree: int, rng: np.random.Generator
) -> Dict[int, List[int]]:
    """Neighbour lists for ``n`` nodes under the requested topology.

    Undirected generators return symmetric adjacency; ``random`` returns
    possibly asymmetric directed neighbour sets (the paper's model).
    Node ids are 0..n-1.
    """
    if n < 3:
        raise ValueError(f"need at least 3 nodes, got {n}")
    if not 1 <= degree < n:
        raise ValueError(f"degree must satisfy 1 <= d < n, got {degree}")
    seed = int(rng.integers(0, 2**31 - 1))
    if kind == "random":
        out: Dict[int, List[int]] = {}
        for node in range(n):
            pool = [i for i in range(n) if i != node]
            picks = rng.choice(pool, size=degree, replace=False)
            out[node] = sorted(int(i) for i in picks)
        return out
    import networkx as nx

    if kind == "regular":
        d = degree if (degree * n) % 2 == 0 else degree + 1
        g = nx.random_regular_graph(d, n, seed=seed)
    elif kind == "small-world":
        k = degree if degree % 2 == 0 else degree + 1
        g = nx.watts_strogatz_graph(n, k, p=0.2, seed=seed)
    elif kind == "scale-free":
        m = max(1, degree // 2)
        g = nx.barabasi_albert_graph(n, m, seed=seed)
    else:
        raise ValueError(f"unknown topology {kind!r}; expected one of {TOPOLOGIES}")
    return {node: sorted(int(x) for x in g.neighbors(node)) for node in range(n)}


def install_topology(overlay: Overlay, adjacency: Dict[int, List[int]]) -> None:
    """Replace every node's neighbour set with the topology's lists.

    Counters reset to zero (a fresh join, per §2.3).  Node ids in the
    adjacency must exist in the overlay.
    """
    for node_id, neighbors in adjacency.items():
        node = overlay.nodes[node_id]
        node.set_neighbors(neighbors)
