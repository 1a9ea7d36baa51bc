"""Reputation-based routing: the related-work baseline (§4).

The paper argues against reputation/scoring schemes for anonymity
forwarding ([9], [10]) on two grounds:

1. "schemes based on system wide monitoring are not ideally suited for
   anonymity systems", and
2. "an inherent problem with a scoring or reputation mechanism is that
   nodes can collude with each other to increase their score ... and
   therefore increase their probability of being selected in the
   forwarding path."

To make that comparison executable we implement the strongest reasonable
baseline: a feedback-based reputation system where each completed round
credits the forwarders that served on it and each failed round debits the
nodes suspected of dropping it, with Bayesian (beta) smoothing.  A
:class:`ReputationRouting` strategy then selects the highest-reputation
neighbour.

The collusion attack of the paper's critique is
:func:`inject_collusion_feedback`: a coalition floods the system with
fake positive feedback about its members, inflating their scores and
pulling honest traffic through colluders — exactly the failure mode the
incentive mechanism avoids (payments are bound to initiator-validated
paths, not to peer testimony).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.core.path import Path
from repro.core.routing import ForwardingContext, RoutingStrategy
from repro.network.node import PeerNode


@dataclass
class ReputationSystem:
    """Global feedback store (the 'system-wide monitoring' the paper
    distrusts).

    Reputation of node ``v`` is the beta-smoothed success rate
    ``(positive + 1) / (positive + negative + 2)`` over all received
    feedback, in (0, 1).
    """

    positive: Dict[int, float] = field(default_factory=dict)
    negative: Dict[int, float] = field(default_factory=dict)

    def record_success(self, node_id: int, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"negative feedback weight {weight}")
        self.positive[node_id] = self.positive.get(node_id, 0.0) + weight

    def record_failure(self, node_id: int, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"negative feedback weight {weight}")
        self.negative[node_id] = self.negative.get(node_id, 0.0) + weight

    def reputation(self, node_id: int) -> float:
        p = self.positive.get(node_id, 0.0)
        n = self.negative.get(node_id, 0.0)
        return (p + 1.0) / (p + n + 2.0)

    def ingest_round(self, path: Optional[Path], suspects: Iterable[int] = ()) -> None:
        """Feedback for one round: credit the forwarders of a completed
        path; debit the suspects of a failed one."""
        if path is not None:
            for node_id, instances in path.forwarding_instances().items():
                self.record_success(node_id, weight=float(instances))
        for node_id in suspects:
            self.record_failure(node_id)


@dataclass
class ReputationRouting(RoutingStrategy):
    """Pick the live neighbour with the highest reputation.

    This is the paper's related-work strawman implemented honestly: it
    routes towards nodes the *system* believes are reliable, with no
    contract/payment binding.  Ties break towards the smaller id.
    """

    system: ReputationSystem
    name: str = "reputation"

    def select_next_hop(
        self,
        node: PeerNode,
        predecessor: Optional[int],
        context: ForwardingContext,
    ) -> Optional[int]:
        cands = context.candidates(node, predecessor)
        if not cands:
            return None
        return min(cands, key=lambda n: (-self.system.reputation(n), n))


def inject_collusion_feedback(
    system: ReputationSystem, coalition: Iterable[int], rounds: int, weight: float = 1.0
) -> None:
    """The §4 collusion attack: coalition members vouch for each other.

    Each colluder submits ``rounds`` fake positive reports for every
    other coalition member.  Because the reputation store cannot verify
    that the claimed forwarding ever happened (feedback is testimony, not
    validated paths), the colluders' scores rise without them serving a
    single honest connection.
    """
    members = list(coalition)
    if rounds < 0:
        raise ValueError(f"negative rounds {rounds}")
    for reporter in members:
        for subject in members:
            if reporter == subject:
                continue
            system.record_success(subject, weight=weight * rounds)
