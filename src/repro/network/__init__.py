"""P2P overlay substrate: peers, neighbour sets, churn, probing, bandwidth.

This package models the forwarding infrastructure the paper's incentive
mechanism runs on:

- :class:`~repro.network.node.PeerNode` — a peer with a fixed-size
  neighbour set ``D(s)``, per-neighbour observed session-time counters and
  the availability estimate of §2.3.
- :class:`~repro.network.overlay.Overlay` — the population: join/leave
  bookkeeping, neighbour assignment and replacement discovery.
- :class:`~repro.network.churn.ChurnModel` — Pareto session times
  (60-minute median), exponential off-times, permanent departures
  (free-riding model).
- :class:`~repro.network.probing.ActiveProber` — periodic liveness probing
  that maintains the §2.3 availability estimator.
- :class:`~repro.network.bandwidth.BandwidthModel` — symmetric per-link
  bandwidths; transmission cost ``C_t = b·l`` with per-unit cost inversely
  proportional to link bandwidth.
- :class:`~repro.network.trace.NetworkTrace` — time-stamped join/leave
  record used by the intersection-attack analysis.
"""

from repro.network.bandwidth import BandwidthModel
from repro.network.churn import ChurnModel
from repro.network.gossip import GossipMembership, PartialView
from repro.network.node import NeighborView, NodeState, PeerNode
from repro.network.overlay import Overlay
from repro.network.probing import ActiveProber, run_probe_round
from repro.network.topology import TOPOLOGIES, build_topology, install_topology
from repro.network.trace import NetworkTrace, TraceEvent
from repro.network.transport import (
    Message,
    MessageKind,
    TransportNetwork,
    measure_path_latency,
)

__all__ = [
    "ActiveProber",
    "BandwidthModel",
    "ChurnModel",
    "GossipMembership",
    "Message",
    "MessageKind",
    "NeighborView",
    "NetworkTrace",
    "NodeState",
    "Overlay",
    "PartialView",
    "PeerNode",
    "TOPOLOGIES",
    "TraceEvent",
    "TransportNetwork",
    "build_topology",
    "install_topology",
    "measure_path_latency",
    "run_probe_round",
]
