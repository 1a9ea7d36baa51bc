"""Traffic-analysis attacks: predecessor attack and history-profile abuse.

**Predecessor attack** (Wright et al. [26]): colluding malicious
forwarders record their immediate predecessor each time they appear on a
path of a given series.  Over many rounds the true initiator precedes a
corrupt first forwarder more often than any other node (every other node
appears as predecessor only when it happens to be on the path), so the
modal predecessor is the attacker's initiator guess.

**History-profile attack** (§5(3)): the connection identifier stored in
history profiles lets a node that captures *another* node's profile link
path segments of the same series across rounds, reconstructing partial
paths.  :class:`HistoryProfileAttack` measures how much of a series' true
edge set the coalition's pooled history reveals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.history import HistoryProfile
from repro.core.path import Path


@dataclass(frozen=True)
class PredecessorObservation:
    cid: int
    round_index: int
    observer: int
    predecessor: int


@dataclass
class PredecessorAttack:
    """Pooled predecessor logging by a coalition of malicious nodes."""

    coalition: FrozenSet[int]
    observations: List[PredecessorObservation] = field(default_factory=list)

    def ingest_path(self, path: Path) -> int:
        """Record what coalition members on ``path`` observe; returns the
        number of new observations."""
        added = 0
        for predecessor, node_id, _successor in path.hop_records():
            if node_id in self.coalition:
                self.observations.append(
                    PredecessorObservation(
                        cid=path.cid,
                        round_index=path.round_index,
                        observer=node_id,
                        predecessor=predecessor,
                    )
                )
                added += 1
        return added

    def predecessor_counts(self, cid: int) -> Dict[int, int]:
        counts: Counter = Counter()
        for obs in self.observations:
            if obs.cid == cid and obs.predecessor not in self.coalition:
                counts[obs.predecessor] += 1
        return dict(counts)

    def guess_initiator(self, cid: int) -> Optional[int]:
        """Modal non-coalition predecessor for the series (None if no data);
        deterministic tie-break towards the smaller id."""
        counts = self.predecessor_counts(cid)
        if not counts:
            return None
        return min(counts, key=lambda n: (-counts[n], n))

    def confidence(self, cid: int) -> float:
        """Share of observations pointing at the modal predecessor."""
        counts = self.predecessor_counts(cid)
        total = sum(counts.values())
        if total == 0:
            return 0.0
        return max(counts.values()) / total


@dataclass
class HistoryProfileAttack:
    """§5(3): reconstruct per-series path fragments from captured history
    profiles (the cid is the linking key)."""

    captured: List[HistoryProfile] = field(default_factory=list)

    def capture(self, profile: HistoryProfile) -> None:
        self.captured.append(profile)

    def linked_edges(self, cid: int) -> Set[Tuple[int, int]]:
        """All (node, successor) edges of series ``cid`` visible in the
        captured profiles."""
        edges: Set[Tuple[int, int]] = set()
        for profile in self.captured:
            for rec_cid, _pred, succ in profile.observed_edges():
                if rec_cid == cid:
                    edges.add((profile.node_id, succ))
            for rec in profile.records_for(cid):
                edges.add((rec.predecessor, profile.node_id))
        return edges
