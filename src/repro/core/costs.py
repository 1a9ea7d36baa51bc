"""Forwarder cost model (§2.4.1).

Two components:

- **participation cost** ``C^p`` — the one-time cost of running the
  anonymity software for a peer session (application-generic);
- **transmission cost** ``C^t = b * l`` — per forwarding instance, payload
  size times per-unit link cost (selfish peers prefer cheap links; the
  per-unit cost comes from the bandwidth model).

Control-packet cost is ignored, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.network.bandwidth import BandwidthModel


@dataclass
class CostModel:
    """Evaluates utility-model cost terms for candidate hops.

    Parameters
    ----------
    bandwidth:
        Link cost source; ``None`` means a flat ``flat_unit_cost`` per
        payload unit on every link (useful for analytic tests).
    flat_unit_cost:
        Per-unit transmission cost used when ``bandwidth`` is None.
    """

    bandwidth: Optional[BandwidthModel] = None
    flat_unit_cost: float = 1.0

    def __post_init__(self) -> None:
        if self.flat_unit_cost < 0:
            raise ValueError(f"negative flat_unit_cost {self.flat_unit_cost}")

    def transmission_cost(self, sender: int, receiver: int, payload_size: float) -> float:
        """``C^t`` of one forwarding instance from ``sender`` to ``receiver``.

        Called once per candidate of every decision, so a link drawn
        before costs one dict lookup: its per-unit cost is cached with
        the draw (:attr:`BandwidthModel.unit_costs`).
        """
        if payload_size < 0:
            raise ValueError(f"negative payload size {payload_size}")
        bandwidth = self.bandwidth
        if bandwidth is None:
            return payload_size * self.flat_unit_cost
        key = (sender, receiver) if sender <= receiver else (receiver, sender)
        unit = bandwidth.unit_costs.get(key)
        if unit is None:
            unit = bandwidth.per_unit_cost(sender, receiver)
        return payload_size * unit

    def decision_cost(
        self,
        node_participation_cost: float,
        sender: int,
        receiver: int,
        payload_size: float,
    ) -> float:
        """Total cost term ``C_i^p + C^t(i, j)`` in the utility models."""
        if node_participation_cost < 0:
            raise ValueError(f"negative participation cost {node_participation_cost}")
        return node_participation_cost + self.transmission_cost(
            sender, receiver, payload_size
        )
