"""Heterogeneous node capacities (Buragohain et al., PAPERS.md).

The paper treats peers as homogeneous; real P2P populations are not —
measured capacity (bandwidth, uptime budget, CPU) spans orders of
magnitude.  This module draws a per-node *relative capacity* (normalised
to mean 1.0 so aggregate workload scales stay comparable across
distributions) and exposes the two couplings the incentive analysis
cares about:

- **availability**: capable nodes sustain longer sessions
  (``cap ** availability_coupling`` multiplies sampled session times via
  the churn model's ``session_scale`` hook);
- **cost**: capable nodes forward more cheaply
  (``C^p * cap ** -cost_coupling``), which spreads the Proposition 2/3
  thresholds into a *distribution* of reserve prices — exactly the
  follower heterogeneity the Stackelberg pricing game
  (:mod:`repro.gametheory.stackelberg`) prices against.

Link bandwidth heterogeneity plugs in separately through
``BandwidthModel(node_capacity=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

#: Supported capacity distributions.
CAPACITY_DISTRIBUTIONS = ("uniform", "pareto", "classes")

#: Coupling strengths a scenario applies (``ExperimentConfig.capacity``):
#: session times scale linearly with capacity and participation cost
#: inversely, so a node twice as capable stays twice as long and
#: forwards at half the cost.
AVAILABILITY_COUPLING = 1.0
COST_COUPLING = 1.0

#: Default capacity classes: (relative capacity, weight) — a stylised
#: dialup / broadband / server mix.
DEFAULT_CLASSES: Tuple[Tuple[float, float], ...] = (
    (0.3, 0.5),
    (1.0, 0.35),
    (4.0, 0.15),
)


def draw_capacities(
    node_ids: Iterable[int],
    rng: np.random.Generator,
    distribution: str = "uniform",
    spread: float = 0.6,
    pareto_alpha: float = 1.5,
    classes: Sequence[Tuple[float, float]] = DEFAULT_CLASSES,
) -> Dict[int, float]:
    """Draw one relative capacity per node, normalised to mean 1.0.

    ``uniform``: ``U[1 - spread, 1 + spread]``.  ``pareto``: heavy-tailed
    ``1 + Lomax(alpha)`` (a few super-peers, many weak ones).
    ``classes``: discrete classes sampled by weight.  Nodes are iterated
    in sorted id order so the draw sequence is population-order
    independent.
    """
    ids = sorted(node_ids)
    if not ids:
        return {}
    if distribution == "uniform":
        if not 0 <= spread < 1:
            raise ValueError(f"spread must be in [0, 1), got {spread}")
        raw = [float(rng.uniform(1.0 - spread, 1.0 + spread)) for _ in ids]
    elif distribution == "pareto":
        if pareto_alpha <= 0:
            raise ValueError(f"pareto_alpha must be > 0, got {pareto_alpha}")
        raw = [1.0 + float(rng.pareto(pareto_alpha)) for _ in ids]
    elif distribution == "classes":
        if not classes:
            raise ValueError("need at least one capacity class")
        values = [float(c) for c, _ in classes]
        weights = np.array([float(w) for _, w in classes], dtype=float)
        if (weights <= 0).any():
            raise ValueError("class weights must be positive")
        probs = weights / weights.sum()
        raw = [values[int(rng.choice(len(values), p=probs))] for _ in ids]
    else:
        raise ValueError(
            f"unknown capacity distribution {distribution!r}; "
            f"expected one of {CAPACITY_DISTRIBUTIONS}"
        )
    mean = sum(raw) / len(raw)
    return {nid: c / mean for nid, c in zip(ids, raw)}


@dataclass(frozen=True)
class CapacityProfile:
    """Drawn capacities plus the coupling strengths applied to them."""

    capacities: Dict[int, float]
    availability_coupling: float = 0.0
    cost_coupling: float = 0.0

    def __post_init__(self) -> None:
        if self.availability_coupling < 0 or self.cost_coupling < 0:
            raise ValueError("couplings must be >= 0")
        for nid, cap in self.capacities.items():
            if cap <= 0:
                raise ValueError(f"non-positive capacity {cap} for node {nid}")

    def capacity(self, node_id: int) -> float:
        return self.capacities.get(node_id, 1.0)

    def session_scale(self, node_id: int) -> float:
        """Session-duration multiplier: ``cap ** availability_coupling``."""
        return self.capacity(node_id) ** self.availability_coupling

    def participation_cost(self, base_cost: float, node_id: int) -> float:
        """Per-node ``C^p``: ``base * cap ** -cost_coupling``."""
        return base_cost * self.capacity(node_id) ** -self.cost_coupling

    def participation_costs(self, base_cost: float) -> Dict[int, float]:
        return {
            nid: self.participation_cost(base_cost, nid)
            for nid in sorted(self.capacities)
        }

    def session_scale_fn(self) -> Callable[[int], float]:
        """Adapter for ``node_lifecycle(session_scale=...)``."""
        return self.session_scale


def combined_session_scale(
    *scales: Callable[[int], float],
) -> Callable[[int], float]:
    """Multiply independent session-scale couplings (e.g. capacity ×
    incentive feedback) into one ``session_scale`` callable."""

    def scale(node_id: int) -> float:
        out = 1.0
        for s in scales:
            out *= s(node_id)
        return out

    return scale


def apply_participation_costs(
    nodes: Mapping[int, object], profile: CapacityProfile, base_cost: float
) -> None:
    """Overwrite each node's ``participation_cost`` from its capacity."""
    for nid in sorted(profile.capacities):
        node = nodes.get(nid)
        if node is not None:
            node.participation_cost = profile.participation_cost(base_cost, nid)


__all__ = [
    "CAPACITY_DISTRIBUTIONS",
    "DEFAULT_CLASSES",
    "CapacityProfile",
    "apply_participation_costs",
    "combined_session_scale",
    "draw_capacities",
]
