"""Tests for overlay topology generation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.network.overlay import Overlay
from repro.network.topology import (
    TOPOLOGIES,
    build_topology,
    install_topology,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_all_topologies_produce_valid_adjacency(kind, rng):
    adj = build_topology(kind, n=20, degree=4, rng=rng)
    assert set(adj) == set(range(20))
    for node, neighbors in adj.items():
        assert node not in neighbors
        assert len(set(neighbors)) == len(neighbors)
        assert all(0 <= x < 20 for x in neighbors)
        assert len(neighbors) >= 1


def test_random_topology_exact_degree(rng):
    adj = build_topology("random", n=15, degree=5, rng=rng)
    assert all(len(v) == 5 for v in adj.values())


def test_regular_topology_symmetric(rng):
    adj = build_topology("regular", n=16, degree=4, rng=rng)
    for node, neighbors in adj.items():
        for nbr in neighbors:
            assert node in adj[nbr]


def test_scale_free_has_hubs(rng):
    adj = build_topology("scale-free", n=60, degree=4, rng=rng)
    degrees = [len(v) for v in adj.values()]
    assert max(degrees) > 2.5 * np.mean(degrees)


def test_small_world_clustering_beats_regular_random(rng):
    import networkx as nx

    def clustering(adj):
        return nx.average_clustering(nx.Graph([(a, b) for a in adj for b in adj[a]]))

    sw = build_topology("small-world", n=60, degree=6, rng=rng)
    rnd = build_topology("regular", n=60, degree=6, rng=np.random.default_rng(1))
    assert clustering(sw) > clustering(rnd)


def test_unknown_topology_rejected(rng):
    with pytest.raises(ValueError, match="unknown topology"):
        build_topology("torus", 10, 3, rng)


def test_parameter_validation(rng):
    with pytest.raises(ValueError):
        build_topology("random", n=2, degree=1, rng=rng)
    with pytest.raises(ValueError):
        build_topology("random", n=10, degree=10, rng=rng)


def test_install_topology_resets_counters(rng):
    ov = Overlay(rng=np.random.default_rng(5), degree=4)
    ov.bootstrap(12)
    ov.nodes[0].neighbors[ov.nodes[0].neighbor_ids()[0]].session_time = 99.0
    adj = build_topology("regular", n=12, degree=4, rng=rng)
    install_topology(ov, adj)
    for node in ov.nodes.values():
        assert sorted(node.neighbor_ids()) == adj[node.node_id]
        assert all(v.session_time == 0.0 for v in node.neighbors.values())


_LAZY_NETWORKX_PROBE = """
import json, sys
import numpy as np
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
result = run_scenario(ExperimentConfig(
    seed=3, n_nodes=30, n_pairs=4, total_transmissions=32, use_bank=False,
))
assert result.series_stats, "the scenario routed nothing"
before = "networkx" in sys.modules
from repro.network.topology import build_topology
adj = build_topology("small-world", n=20, degree=4, rng=np.random.default_rng(0))
print(json.dumps([before, "networkx" in sys.modules, adj]))
"""


def test_networkx_loads_only_for_graph_topologies():
    """A default (``random``) scenario never imports networkx; the first
    graph topology does, and builds the same adjacency as in-process."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_NETWORKX_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    before, after, adj = json.loads(proc.stdout)
    assert before is False
    assert after is True
    expected = build_topology("small-world", n=20, degree=4, rng=np.random.default_rng(0))
    assert {int(k): v for k, v in adj.items()} == expected
