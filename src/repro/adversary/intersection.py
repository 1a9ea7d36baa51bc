"""The intersection attack (§2.1, Wright et al. [27]).

An observer who can tell *when* a recurring connection between I and R is
active (e.g. by watching R) intersects the sets of online nodes at those
instants: the initiator must have been online every time, so the candidate
set shrinks with every observation.  Churn accelerates the attack — the
more the online population turns over between rounds, the faster the
intersection collapses to {I}.

The paper's defence is indirect: the incentive mechanism keeps the
forwarder set (and the underlying availability) stable, reducing both the
number of path reformations and the information each reformation leaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.path import Path
from repro.network.trace import NetworkTrace
from repro.core.utility import entropy_anonymity_degree


@dataclass(frozen=True)
class IntersectionResult:
    """Outcome of an intersection attack against one connection series."""

    initiator: int
    observations: int
    #: Candidate-set size after each successive intersection.
    candidate_sizes: List[int]
    final_candidates: FrozenSet[int]

    @property
    def exposed(self) -> bool:
        """True when the initiator is uniquely identified."""
        return self.final_candidates == frozenset({self.initiator})

    @property
    def anonymity_degree(self) -> float:
        """Normalised entropy of a uniform distribution over the final
        candidate set, relative to the initial population of candidates.

        1.0 = no information gained, 0.0 = fully identified.
        """
        n0 = self.candidate_sizes[0] if self.candidate_sizes else 1
        nf = len(self.final_candidates)
        if n0 <= 1:
            return 0.0
        if nf <= 1:
            return 0.0
        return entropy_anonymity_degree([1.0 / nf] * nf) * (
            _log(nf) / _log(n0)
        )


def _log(x: int) -> float:
    import math

    return math.log2(x) if x > 1 else 1.0


@dataclass
class IntersectionAttack:
    """Attacker state: successive online-set observations for one series."""

    trace: NetworkTrace
    initiator: int
    #: The attacker may already exclude some ids (e.g. the responder, known
    #: malicious colluders).
    excluded: FrozenSet[int] = frozenset()
    _candidates: Optional[set] = field(default=None, repr=False)
    _sizes: List[int] = field(default_factory=list, repr=False)
    _observations: int = 0

    def observe(self, time: float) -> int:
        """Record one activity observation at ``time``; returns the current
        candidate-set size."""
        online = set(self.trace.online_at(time)) - set(self.excluded)
        if self._candidates is None:
            self._candidates = online
        else:
            self._candidates &= online
        self._observations += 1
        self._sizes.append(len(self._candidates))
        return len(self._candidates)

    def observe_rounds(self, times: Sequence[float]) -> "IntersectionResult":
        for t in times:
            self.observe(t)
        return self.result()

    def result(self) -> IntersectionResult:
        if self._candidates is None:
            raise RuntimeError("no observations made yet")
        return IntersectionResult(
            initiator=self.initiator,
            observations=self._observations,
            candidate_sizes=list(self._sizes),
            final_candidates=frozenset(self._candidates),
        )


@dataclass
class CoalitionObserver:
    """A coalition of compromised forwarders pooling intersection data.

    The single-observer attack above assumes someone watches the
    responder for the *whole* series.  The coalition model is weaker per
    member but stronger in aggregate: a malicious forwarder only learns
    that series ``cid`` was active when it sits on (or terminates) that
    round's path, so each member observes a subset of the rounds.  The
    coalition pools those per-round observations — the union of observed
    round times per series — and runs the §2.1 intersection over the
    pooled set.

    Monotonicity is structural: a larger coalition observes a superset
    of round times, and intersecting over more online-set snapshots can
    only shrink (never grow) the candidate set.  The property suite pins
    this (`tests/properties/test_attack_invariants.py`).
    """

    trace: NetworkTrace
    members: FrozenSet[int] = frozenset()
    #: Pooled observation times per series (cid -> sorted unique times).
    _times: Dict[int, List[float]] = field(default_factory=dict, repr=False)

    def observe_path(
        self, path: Path, time: float, series_cid: Optional[int] = None
    ) -> bool:
        """Ingest one committed round.  The coalition learns the series
        was active at ``time`` iff a member forwarded on (or received)
        the round's path.  Returns True when the round was observed.

        ``series_cid`` overrides the cid the observation is pooled under
        (wire cids rotate under the cid-rotation defence; the attack
        still targets the underlying series)."""
        if not self.members:
            return False
        visible = set(path.forwarders)
        visible.add(path.responder)
        if not (visible & self.members):
            return False
        self.record_observation(
            path.cid if series_cid is None else series_cid, time
        )
        return True

    def record_observation(self, cid: int, time: float) -> None:
        """Pool one raw activity observation for series ``cid``."""
        times = self._times.setdefault(cid, [])
        if time not in times:
            times.append(time)
            times.sort()

    def attack(
        self,
        cid: int,
        initiator: int,
        excluded: FrozenSet[int] = frozenset(),
    ) -> Optional[IntersectionResult]:
        """Run the pooled intersection against one series.

        Returns None when the coalition never observed the series (an
        *empty round set* gives the attacker nothing — the candidate set
        is the whole population and no IntersectionResult exists).
        """
        times = self._times.get(cid)
        if not times:
            return None
        attack = IntersectionAttack(
            trace=self.trace, initiator=initiator, excluded=excluded
        )
        return attack.observe_rounds(times)
