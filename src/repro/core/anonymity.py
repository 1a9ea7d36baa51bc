"""Quantitative anonymity analysis for Crowds-style forwarding.

The paper builds on Crowds [21] and cites the quantitative analyses of
Guan et al. [17] (effect of path length on anonymity) and Wright et al.
[26, 27] (degradation under repeated observations).  This module provides
the analytic side of those references so simulation results can be
checked against closed forms:

- :func:`prob_predecessor_is_initiator` — Reiter & Rubin's core result:
  the probability that the node immediately preceding the *first
  collaborating forwarder* is the true initiator,
  ``P = 1 - p_f * (n - c - 1) / n``
  for crowd size ``n``, ``c`` collaborators, forwarding probability
  ``p_f``.
- :func:`probable_innocence_holds` / :func:`min_crowd_size` — the
  probable-innocence regime ``P <= 1/2`` and the minimum crowd size
  ``n >= p_f / (p_f - 1/2) * (c + 1)`` that guarantees it.
- :func:`prob_collaborator_on_path` — probability that at least one
  collaborator sits on a path.
- :func:`predecessor_attack_rounds` — Wright et al.'s degradation: the
  expected number of path reformations before collaborators identify the
  initiator with the given confidence, ``O(log(1/err) * n / c)`` in the
  standard analysis; we expose the exact geometric computation.
- :func:`degree_of_anonymity` — Diaz/Serjantov normalised entropy over an
  attacker's suspicion distribution (re-exported convenience).
"""

from __future__ import annotations

import math

from repro.core.utility import entropy_anonymity_degree as degree_of_anonymity

__all__ = [
    "degree_of_anonymity",
    "expected_forwarders",
    "min_crowd_size",
    "predecessor_attack_rounds",
    "prob_collaborator_on_path",
    "prob_predecessor_is_initiator",
    "probable_innocence_holds",
]


def _check(n: int, c: int, pf: float) -> None:
    if n < 1:
        raise ValueError(f"crowd size must be >= 1, got {n}")
    if not 0 <= c < n:
        raise ValueError(f"collaborators must satisfy 0 <= c < n, got c={c}, n={n}")
    if not 0.0 <= pf < 1.0:
        raise ValueError(f"forwarding probability must be in [0, 1), got {pf}")


def prob_predecessor_is_initiator(n: int, c: int, pf: float) -> float:
    """P(first collaborator's predecessor = initiator | >=1 collaborator).

    Reiter & Rubin, Crowds (ToISS 1998), Theorem 5.2's underlying
    quantity: ``1 - p_f * (n - c - 1) / n``.
    """
    _check(n, c, pf)
    return 1.0 - pf * (n - c - 1) / n


def probable_innocence_holds(n: int, c: int, pf: float) -> bool:
    """Probable innocence: the initiator looks no more likely than not,
    ``P(predecessor = initiator) <= 1/2``."""
    return prob_predecessor_is_initiator(n, c, pf) <= 0.5


def min_crowd_size(c: int, pf: float) -> int:
    """Smallest crowd size giving probable innocence with ``c``
    collaborators: ``n >= p_f / (p_f - 1/2) * (c + 1)`` (requires
    ``p_f > 1/2``)."""
    if not 0.5 < pf < 1.0:
        raise ValueError(
            f"probable innocence requires 1/2 < p_f < 1, got {pf}"
        )
    if c < 0:
        raise ValueError(f"negative collaborator count {c}")
    # Tolerance absorbs float noise in the division (e.g. 12.000000000002).
    return math.ceil(pf / (pf - 0.5) * (c + 1) - 1e-9)


def expected_forwarders(pf: float) -> float:
    """Expected number of forwarders on a Crowds path (geometric)."""
    if not 0.0 <= pf < 1.0:
        raise ValueError(f"forwarding probability must be in [0, 1), got {pf}")
    return 1.0 / (1.0 - pf)


def prob_collaborator_on_path(n: int, c: int, pf: float) -> float:
    """P(at least one collaborator appears on a path).

    Each forwarding step picks a collaborator with probability ``c/n``;
    the number of steps is geometric with continuation ``p_f``.  Summing
    the geometric series:

    ``P = (c/n) / (1 - p_f * (1 - c/n))``
    """
    _check(n, c, pf)
    if c == 0:
        return 0.0
    ratio = c / n
    return ratio / (1.0 - pf * (1.0 - ratio))


def predecessor_attack_rounds(
    n: int, c: int, pf: float, confidence: float = 0.95
) -> float:
    """Expected number of path (re)formations before the predecessor
    attack observes the initiator at least once with the given
    confidence.

    Per reformation, the initiator is exposed to a collaborator's log
    with probability ``q = P(collaborator first on path) ~=
    prob_collaborator_on_path * P(pred = I | collaborator)``; the number
    of reformations to a first observation is geometric, so
    ``rounds = log(1 - confidence) / log(1 - q)``.

    This is the quantity the paper's mechanism attacks indirectly: fewer
    reformations (Proposition 1) mean fewer observation opportunities.
    """
    _check(n, c, pf)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if c == 0:
        return math.inf
    q = prob_collaborator_on_path(n, c, pf) * prob_predecessor_is_initiator(n, c, pf)
    if q <= 0.0:
        return math.inf
    if q >= 1.0:
        return 1.0
    return math.log(1.0 - confidence) / math.log(1.0 - q)
