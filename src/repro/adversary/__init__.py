"""Adversary models and anonymity attacks (§2.1, §2.4, §5).

- :mod:`~repro.adversary.models` — the paper's adversary (random routing,
  §2.4) plus the §5 *availability attacker* (a malicious node that makes
  itself maximally available to attract reformed paths).
- :mod:`~repro.adversary.intersection` — the intersection attack of §2.1:
  intersect the sets of online nodes observed across the rounds of a
  recurring connection; the initiator is exposed when the candidate set
  collapses.  :class:`~repro.adversary.intersection.CoalitionObserver`
  extends it to coalitions of compromised forwarders pooling per-round
  observations.
- :mod:`~repro.adversary.sybil` — Sybil colonies and whitewashing
  identity churn attacking the token economy
  (:class:`~repro.adversary.sybil.SybilColony` lifecycle).
- :mod:`~repro.adversary.traffic_analysis` — the predecessor attack:
  colluding malicious forwarders log their immediate predecessor per
  series; the most frequent predecessor is the initiator guess.
  Also models the §5(3) attack through connection identifiers in
  captured history profiles.
"""

from repro.adversary.intersection import (
    CoalitionObserver,
    IntersectionAttack,
    IntersectionResult,
)
from repro.adversary.models import AvailabilityAttacker, make_availability_attackers
from repro.adversary.sybil import (
    SYBIL_STRATEGIES,
    SybilColony,
    SybilResult,
    run_sybil_experiment,
)
from repro.adversary.traffic_analysis import (
    HistoryProfileAttack,
    PredecessorAttack,
    PredecessorObservation,
)

__all__ = [
    "AvailabilityAttacker",
    "CoalitionObserver",
    "HistoryProfileAttack",
    "IntersectionAttack",
    "IntersectionResult",
    "PredecessorAttack",
    "PredecessorObservation",
    "SYBIL_STRATEGIES",
    "SybilColony",
    "SybilResult",
    "make_availability_attackers",
    "run_sybil_experiment",
]
