"""Benefit contracts: the initiator's payment commitment (§2.2).

When an initiator opens a connection series to a responder it commits to

- a **forwarding benefit** ``P_f`` paid to a forwarder *per forwarding
  instance*, and
- a **routing benefit** ``P_r`` shared equally by the whole forwarder set
  of the series: a forwarder with ``m`` forwarding instances earns
  ``m * P_f + P_r / ||pi||``.

The ratio ``tau = P_r / P_f`` tunes how strongly routing decisions (as
opposed to mere participation) are rewarded; the paper sweeps
``tau in {0.5, 1, 2, 4}`` and draws ``P_f`` uniformly from ``[50, 100]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Paper default range for the forwarding benefit draw.
PF_RANGE = (50.0, 100.0)
#: Payload size ``b`` of one forwarding instance: the cost law
#: ``C^t = b*l`` is in units of one payload.
PAYLOAD_SIZE = 1.0
#: Paper's sweep values for the routing/forwarding benefit ratio.
TAU_VALUES = (0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class Contract:
    """An immutable benefit commitment attached to a connection series.

    Attributes
    ----------
    forwarding_benefit:
        ``P_f`` — per-forwarding-instance payment.
    routing_benefit:
        ``P_r`` — total shared payment, split evenly over the forwarder set.
    payload_size:
        ``b`` in the transmission-cost formula ``C^t = b*l`` (§2.4.1).
    """

    forwarding_benefit: float
    routing_benefit: float
    payload_size: float = PAYLOAD_SIZE

    def __post_init__(self) -> None:
        if self.forwarding_benefit < 0:
            raise ValueError(f"negative P_f: {self.forwarding_benefit}")
        if self.routing_benefit < 0:
            raise ValueError(f"negative P_r: {self.routing_benefit}")
        if self.payload_size <= 0:
            raise ValueError(f"payload_size must be positive: {self.payload_size}")

    @property
    def tau(self) -> float:
        """``P_r / P_f`` (inf if ``P_f == 0``)."""
        if self.forwarding_benefit == 0:
            return float("inf") if self.routing_benefit > 0 else 0.0
        return self.routing_benefit / self.forwarding_benefit

    @classmethod
    def from_tau(
        cls, forwarding_benefit: float, tau: float, payload_size: float = PAYLOAD_SIZE
    ) -> "Contract":
        """Build a contract from ``P_f`` and the ratio ``tau``."""
        if tau < 0:
            raise ValueError(f"negative tau: {tau}")
        return cls(
            forwarding_benefit=forwarding_benefit,
            routing_benefit=tau * forwarding_benefit,
            payload_size=payload_size,
        )

    def forwarder_payment(self, instances: int, forwarder_set_size: int) -> float:
        """Total owed to one forwarder: ``m*P_f + P_r/||pi||``."""
        if instances < 0:
            raise ValueError(f"negative instance count {instances}")
        if forwarder_set_size < 1:
            raise ValueError(f"forwarder set must be non-empty, got {forwarder_set_size}")
        return instances * self.forwarding_benefit + (
            self.routing_benefit / forwarder_set_size
        )

def draw_contract(
    rng: np.random.Generator,
    tau: float,
    pf_range: "tuple[float, float]" = PF_RANGE,
    payload_size: float = PAYLOAD_SIZE,
) -> Contract:
    """Draw ``P_f`` uniformly from ``pf_range`` (paper: [50, 100]) at ratio tau."""
    lo, hi = pf_range
    if not 0 <= lo <= hi:
        raise ValueError(f"invalid P_f range {pf_range}")
    pf = float(rng.uniform(lo, hi))
    return Contract.from_tau(pf, tau, payload_size=payload_size)
