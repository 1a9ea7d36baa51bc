"""Adversarial node behaviours.

The baseline adversary in the paper routes randomly (its goal is
de-anonymisation, not income) — that behaviour lives in
:class:`repro.core.routing.RandomRouting` and is wired up by the path
builder's ``adversary_strategy``.

This module adds the §5(1) **availability attack**: "malicious nodes
become highly available and wait for paths to be reformed through them."
An availability attacker never churns (it stays online for the whole
simulation), so the probing estimator assigns it ever-growing session
time, and availability-weighted routing increasingly prefers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.network.overlay import Overlay


@dataclass
class AvailabilityAttacker:
    """Marker/controller for an always-on malicious node.

    The attack needs no active behaviour beyond *not leaving*: the node is
    flagged malicious (so it routes randomly when chosen) and is excluded
    from churn by the scenario runner.
    """

    node_id: int


def make_availability_attackers(
    overlay: Overlay, count: int, rng: np.random.Generator
) -> List[AvailabilityAttacker]:
    """Convert ``count`` random online good nodes into availability
    attackers (flag them malicious; the scenario keeps them out of churn)."""
    candidates = [
        nid for nid in overlay.online_ids() if not overlay.nodes[nid].malicious
    ]
    if count > len(candidates):
        raise ValueError(
            f"cannot create {count} attackers from {len(candidates)} good nodes"
        )
    picked = rng.choice(candidates, size=count, replace=False)
    attackers = []
    for nid in picked:
        overlay.nodes[int(nid)].malicious = True
        attackers.append(AvailabilityAttacker(node_id=int(nid)))
    return attackers
