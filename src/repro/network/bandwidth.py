"""Per-link bandwidth model and transmission costs.

The paper (§3) models "the transmission cost between two peers as being
proportional to the communication bandwidth between them" — i.e. the cost
of pushing a payload over a link reflects the link's (inverse) capacity:
slow links cost more per byte.  §2.4.1 defines the transmission cost as
``C^t = b·l`` where ``b`` is the payload size and ``l`` the per-unit cost
of the link.

We model symmetric link bandwidths drawn once per unordered pair from a
configurable range (defaults loosely follow the broadband/DSL mix of the
Saroiu et al. measurement study the paper cites for churn).  The per-unit
cost of a link is ``reference_bandwidth / bandwidth`` so that the
*fastest* links have the *lowest* cost, scaled to ``unit_cost`` on a
reference link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np


#: The scenario's link law: bandwidth ``U[MIN_BANDWIDTH, MAX_BANDWIDTH]``,
#: per-unit cost ``UNIT_COST`` on a ``REFERENCE_BANDWIDTH`` link (so the
#: fastest links cost ``UNIT_COST`` and the slowest ten times more).
MIN_BANDWIDTH = 1.0
MAX_BANDWIDTH = 10.0
REFERENCE_BANDWIDTH = 10.0
UNIT_COST = 1.0


def _pair(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def expected_transmission_cost(payload_size: float) -> float:
    """Expected ``C^t`` of sending ``payload_size`` units over one link of
    the default law: Proposition 3's transmission-cost term for a
    follower that does not yet know its next hop."""
    from repro.gametheory.stackelberg import uniform_bandwidth_transmission_cost

    return (
        uniform_bandwidth_transmission_cost(
            UNIT_COST, REFERENCE_BANDWIDTH, MIN_BANDWIDTH, MAX_BANDWIDTH
        )
        * payload_size
    )


@dataclass
class BandwidthModel:
    """Lazy, seeded map of unordered peer pairs to link bandwidth and cost.

    Parameters
    ----------
    rng:
        Generator used to draw bandwidths (draws are cached per pair, so
        lookups are deterministic and order-independent within a run).
    min_bandwidth, max_bandwidth:
        Uniform range of symmetric link bandwidth (abstract units, think
        Mbit/s).
    reference_bandwidth:
        Bandwidth at which a link has per-unit cost exactly ``unit_cost``.
    unit_cost:
        Per-unit transmission cost ``l`` on a reference link.
    node_capacity:
        Optional per-node relative capacity (mean ≈ 1; see
        :mod:`repro.network.capacity`).  When set, a link's effective
        bandwidth is the uniform draw scaled by the *slower* endpoint —
        ``min(cap_a, cap_b)`` — so heterogeneous capacities feed directly
        into transmission costs.  ``None`` (default) is bit-identical to
        the homogeneous model.
    """

    rng: np.random.Generator
    min_bandwidth: float = MIN_BANDWIDTH
    max_bandwidth: float = MAX_BANDWIDTH
    reference_bandwidth: float = REFERENCE_BANDWIDTH
    unit_cost: float = UNIT_COST
    node_capacity: Optional[Dict[int, float]] = None
    _links: Dict[Tuple[int, int], float] = field(default_factory=dict, repr=False)
    #: ``unit_cost * reference_bandwidth / bandwidth`` per drawn link,
    #: stored with the draw: the per-unit cost every decision reads.
    unit_costs: Dict[Tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self):
        if not 0 < self.min_bandwidth <= self.max_bandwidth:
            raise ValueError(
                f"invalid bandwidth range [{self.min_bandwidth}, {self.max_bandwidth}]"
            )
        if self.reference_bandwidth <= 0 or self.unit_cost < 0:
            raise ValueError("reference_bandwidth must be > 0 and unit_cost >= 0")

    def bandwidth(self, a: int, b: int) -> float:
        """Symmetric bandwidth of the link {a, b} (cached on first use)."""
        if a == b:
            raise ValueError("no self-links")
        key = _pair(a, b)
        bw = self._links.get(key)
        if bw is None:
            bw = float(self.rng.uniform(self.min_bandwidth, self.max_bandwidth))
            if self.node_capacity is not None:
                bw *= min(
                    self.node_capacity.get(a, 1.0), self.node_capacity.get(b, 1.0)
                )
            self._links[key] = bw
            self.unit_costs[key] = self.unit_cost * self.reference_bandwidth / bw
        return bw

    def per_unit_cost(self, a: int, b: int) -> float:
        """Per-unit transmission cost ``l`` of the link {a, b}
        (``unit_cost * reference_bandwidth / bandwidth(a, b)``)."""
        key = _pair(a, b)
        cost = self.unit_costs.get(key)
        if cost is None:
            self.bandwidth(a, b)
            cost = self.unit_costs[key]
        return cost

    def transmission_cost(self, a: int, b: int, payload_size: float = 1.0) -> float:
        """``C^t = b·l`` for sending ``payload_size`` units over {a, b}."""
        if payload_size < 0:
            raise ValueError(f"negative payload size {payload_size}")
        return payload_size * self.per_unit_cost(a, b)

    def transfer_time(self, a: int, b: int, payload_size: float = 1.0) -> float:
        """Time to push ``payload_size`` units over the link (size/bw)."""
        return payload_size / self.bandwidth(a, b)
