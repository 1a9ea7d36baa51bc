"""Utility functions for forwarders and the initiator (§2.2, §2.4.2-3).

- **Utility Model I** (edge-local, eq. 1):
  ``U_i(j) = P_f + q(i, j) * P_r - (C_i^p + C^t(i, j))``
- **Utility Model II** (path-global):
  ``U_i(j) = P_f + q(pi(i, j, R)) * P_r - (C_i^p + C^t(i, j))``
  where ``q(pi(i, j, R))`` is the (normalised) quality of the best path
  from *i* through *j* to the responder.
- **Initiator utility** (eq. 2):
  ``U_I = A(||pi||) - ||pi|| * P_f - P_r``
  with ``A(.)`` a decreasing-in-``||pi||`` anonymity payoff.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.contracts import Contract


def forwarder_utility_model1(
    contract: Contract, edge_quality: float, cost: float
) -> float:
    """Eq. 1: ``P_f + q_e * P_r - C``.

    ``edge_quality`` must be in [0, 1]; ``cost`` is the combined
    participation + transmission cost of this decision.
    """
    if not 0.0 <= edge_quality <= 1.0:
        raise ValueError(f"edge quality out of [0,1]: {edge_quality}")
    if cost < 0:
        raise ValueError(f"negative cost {cost}")
    return contract.forwarding_benefit + edge_quality * contract.routing_benefit - cost


def forwarder_utility_model2(
    contract: Contract, path_quality: float, cost: float
) -> float:
    """Model II utility: ``P_f + q(pi(i,j,R)) * P_r - C``.

    ``path_quality`` is the *normalised* quality of the remaining path to
    the responder (mean per-edge quality, in [0, 1]) so that both models
    place ``P_r`` on the same scale.
    """
    if not 0.0 <= path_quality <= 1.0:
        raise ValueError(f"path quality out of [0,1]: {path_quality}")
    if cost < 0:
        raise ValueError(f"negative cost {cost}")
    return contract.forwarding_benefit + path_quality * contract.routing_benefit - cost


def argmax_with_quality_tiebreak(
    scored: List[Tuple[float, float, int]]
) -> Optional[Tuple[float, float, int]]:
    """The forwarder's pick over ``(utility, quality, neighbor)`` triples:
    max by utility; ties resolved towards higher quality, then lower id
    (the paper specifies the quality tie-break; the id tie-break makes runs
    reproducible).  ``None`` when there is no candidate."""
    if not scored:
        return None
    return max(scored, key=lambda t: (t[0], t[1], -t[2]))


def anonymity_payoff(
    forwarder_set_size: int, scale: float = 1000.0, reference: int = 1
) -> float:
    """``A(||pi||)``: the initiator's anonymity benefit (§2.2, footnote 4).

    The paper only requires that ``A`` increase as ``||pi||`` decreases.
    We use ``scale / (||pi|| / reference)`` — hyperbolic decay, positive,
    strictly decreasing in the forwarder-set size.
    """
    if forwarder_set_size < 1:
        raise ValueError(f"forwarder set size must be >= 1, got {forwarder_set_size}")
    if scale <= 0 or reference < 1:
        raise ValueError("scale must be > 0 and reference >= 1")
    return scale * reference / forwarder_set_size


def initiator_utility(
    contract: Contract,
    forwarder_set_size: int,
    anonymity_scale: float = 1000.0,
) -> float:
    """Eq. 2: ``U_I = A(||pi||) - ||pi|| * P_f - P_r``.

    Note the paper charges ``P_f`` per *member of the forwarder set* in
    eq. 2 (an approximation of per-instance payment with one instance per
    forwarder); we follow the equation as printed.
    """
    a = anonymity_payoff(forwarder_set_size, scale=anonymity_scale)
    return (
        a
        - forwarder_set_size * contract.forwarding_benefit
        - contract.routing_benefit
    )


def entropy_anonymity_degree(probabilities: Sequence[float]) -> float:
    """Degree of anonymity: normalised Shannon entropy of suspicion.

    Standard Diaz/Serjantov metric used to quantify ``A(.)`` empirically:
    ``H(X) / log2(N)`` over the attacker's probability assignment to the
    candidate initiators.  1 = perfect anonymity, 0 = fully identified.
    """
    probs = [p for p in probabilities if p > 0]
    if not probs:
        raise ValueError("need at least one positive probability")
    total = sum(probs)
    if abs(total - 1.0) > 1e-6:
        probs = [p / total for p in probs]
    n = len(list(probabilities))
    if n <= 1:
        return 0.0
    h = -sum(p * math.log2(p) for p in probs)
    return h / math.log2(n)
