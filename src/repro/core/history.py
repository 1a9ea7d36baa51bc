"""Per-node connection history profiles and selectivity (§2.3, Table 1).

Each node stores, for every connection that passed through it, a record
``(cid, predecessor, successor)``.  For a recurring connection series
``pi = {pi^1 ... pi^k}`` (all rounds share the series' connection
identifier ``cid``), the history at node *s* before round *k* is
``H^{k-1}(s)``: the outgoing edges of *s* on rounds 1..k-1.

**Selectivity** of an edge ``(s, v)`` is the ratio of history entries for
that edge to the maximum possible number of entries, ``k - 1``.  Records
keep the predecessor so a node occupying two positions on the same path
can score the two positions' outgoing edges independently ("by using the
predecessor information, a node can differentiate between outgoing edges
for two different positions on the same path").

Selectivity is the innermost call of the routing hot path (every
candidate edge, every hop, every round), so the profile maintains two
*sorted round indices* alongside the raw record list:

- ``(cid, successor) -> sorted [round_index, ...]``
- ``(cid, predecessor, successor) -> sorted [round_index, ...]``

A selectivity query then counts matching entries with a single
``bisect`` (O(log k)) instead of scanning every stored record
(O(k)).  The indices are kept exactly consistent with ``_records``
through :meth:`record`, capacity eviction, and :meth:`forget_series`;
:meth:`selectivity_naive` retains the original linear scan as the
executable specification the differential tests check against.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.monitoring import PERF


@dataclass(frozen=True)
class HistoryRecord:
    """One stored hop: series ``cid``, round index, predecessor, successor."""

    cid: int
    round_index: int
    predecessor: int
    successor: int

    def __post_init__(self) -> None:
        if self.round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {self.round_index}")


class _WeakReferable:
    """Slot base that keeps a slotted subclass weakly referable
    (``dataclass(weakref_slot=True)`` needs Python 3.11)."""

    __slots__ = ("__weakref__",)


@dataclass(slots=True)
class HistoryProfile(_WeakReferable):
    """History store for one node, keyed by series cid.

    ``capacity`` bounds the number of records kept *per cid* (the paper
    notes "the amount of history information stored at a node also
    influences the quality of the edge"); oldest records are evicted first.
    ``capacity=None`` keeps everything.  Slotted (no per-instance
    ``__dict__``): a run holds one profile per node.
    """

    node_id: int
    capacity: Optional[int] = None
    _records: Dict[int, List[HistoryRecord]] = field(default_factory=dict, repr=False)
    #: cid -> successor -> sorted round indices (duplicates kept: one entry
    #: per stored record).
    _edge_rounds: Dict[int, Dict[int, List[int]]] = field(
        default_factory=dict, repr=False
    )
    #: cid -> (predecessor, successor) -> sorted round indices.
    _pos_rounds: Dict[int, Dict[Tuple[int, int], List[int]]] = field(
        default_factory=dict, repr=False
    )
    #: Monotonic change counter: advances on every :meth:`record` (which
    #: covers eviction) and :meth:`forget_series`.  Array-backed views
    #: (:class:`repro.core.kernels.WorldArrays`) compare a remembered
    #: value against this to invalidate derived selectivity arrays.
    version: int = field(default=0, repr=False)
    #: Write-through subscribers, held by weak reference (see
    #: :meth:`subscribe`).  Each is an object with
    #: ``on_hits(node_id, cid, round_index, successor, delta)`` —
    #: ``delta`` is ``+1`` per stored record and ``-1`` per record that
    #: capacity eviction drops — and ``on_forget(node_id, cid)``, notified
    #: *after* the indices and ``version`` are updated.  The numpy
    #: planner's hit-row store (:class:`repro.core.kernels.HitRows`)
    #: subscribes here so its per-(cid, edge) entry counts stay exact
    #: without re-scanning the indices.
    _subscribers: List["weakref.ref[object]"] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {self.capacity}")
        # A profile constructed with pre-existing records (e.g. by a
        # deserialiser) must index them before the first query.
        if self._records and not self._edge_rounds:
            for bucket in self._records.values():
                for rec in bucket:
                    self._index_add(rec)

    # -- index maintenance ------------------------------------------------
    def _index_add(self, rec: HistoryRecord) -> None:
        edge = self._edge_rounds.setdefault(rec.cid, {})
        insort(edge.setdefault(rec.successor, []), rec.round_index)
        pos = self._pos_rounds.setdefault(rec.cid, {})
        insort(
            pos.setdefault((rec.predecessor, rec.successor), []), rec.round_index
        )

    def _index_remove(self, rec: HistoryRecord) -> None:
        """Remove one occurrence of ``rec`` from both indices.

        All entries in a round list are equal integers, so removing the
        element at ``bisect_left`` deletes exactly one matching occurrence.
        """
        edge = self._edge_rounds[rec.cid][rec.successor]
        del edge[bisect_left(edge, rec.round_index)]
        if not edge:
            del self._edge_rounds[rec.cid][rec.successor]
        pos = self._pos_rounds[rec.cid][(rec.predecessor, rec.successor)]
        del pos[bisect_left(pos, rec.round_index)]
        if not pos:
            del self._pos_rounds[rec.cid][(rec.predecessor, rec.successor)]

    def record(self, cid: int, round_index: int, predecessor: int, successor: int) -> None:
        """Store the hop taken through this node on round ``round_index``."""
        rec = HistoryRecord(cid, round_index, predecessor, successor)
        bucket = self._records.setdefault(cid, [])
        bucket.append(rec)
        self._index_add(rec)
        self.version += 1
        if self._subscribers:
            self._notify("on_hits", cid, round_index, successor, 1)
        if self.capacity is not None and len(bucket) > self.capacity:
            evicted = bucket[0 : len(bucket) - self.capacity]
            del bucket[0 : len(bucket) - self.capacity]
            for old in evicted:
                self._index_remove(old)
                if self._subscribers:
                    self._notify("on_hits", old.cid, old.round_index, old.successor, -1)

    # -- write-through subscribers ---------------------------------------
    def subscribe(self, subscriber: object) -> None:
        """Notify ``subscriber`` of every later record, eviction and
        forget (see ``_subscribers``).  The profile keeps only a weak
        reference, so it never extends the subscriber's lifetime and no
        reference cycle runs through it."""
        self._subscribers = [ref for ref in self._subscribers if ref() is not None]
        self._subscribers.append(weakref.ref(subscriber))

    def is_subscribed(self, subscriber: object) -> bool:
        return any(ref() is subscriber for ref in self._subscribers)

    def _notify(self, method: str, *args: int) -> None:
        live = []
        for ref in self._subscribers:
            sub = ref()
            if sub is not None:
                getattr(sub, method)(self.node_id, *args)
                live.append(ref)
        if len(live) != len(self._subscribers):
            self._subscribers = live

    def records_for(self, cid: int) -> List[HistoryRecord]:
        """All stored records for a series (oldest first)."""
        return list(self._records.get(cid, ()))

    def selectivity(
        self,
        cid: int,
        successor: int,
        round_index: int,
        predecessor: Optional[int] = None,
    ) -> float:
        """``sigma(s, v)`` for round ``round_index`` of series ``cid``.

        Ratio of matching history entries to the maximum possible
        ``round_index - 1``.  If ``predecessor`` is given, only entries with
        that predecessor match (position-aware scoring); otherwise all
        entries for the edge count.  Returns 0 on the first round.

        Answered from the sorted round index in O(log k); equivalent to
        :meth:`selectivity_naive` by construction (the indices mirror
        ``_records`` exactly).
        """
        if round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {round_index}")
        PERF.selectivity_queries += 1
        max_entries = round_index - 1
        if max_entries == 0:
            return 0.0
        if predecessor is None:
            rounds = self._edge_rounds.get(cid, {}).get(successor)
        else:
            rounds = self._pos_rounds.get(cid, {}).get((predecessor, successor))
        if not rounds:
            return 0.0
        # Entries strictly before the current round (never peek ahead).
        hits = bisect_left(rounds, round_index)
        return min(1.0, hits / max_entries)

    def selectivity_hits_block(
        self,
        cid: int,
        successors: List[int],
        round_index: int,
    ) -> List[int]:
        """Matching-entry counts for a whole candidate block, one bisect
        per successor — the batched form of :meth:`selectivity`'s numerator
        (predecessor-unconditioned; :meth:`selectivity_hits_block_pos` is
        the position-aware counterpart).

        Returns raw hit counts (not ratios) so the caller can normalise
        the whole block in one vectorised division.  Counts only entries
        strictly before ``round_index``, exactly like :meth:`selectivity`.
        The result order matches ``successors``.  One counter bump covers
        the block (per-edge queries are what ``selectivity_queries``
        measures on the scalar path; the batched path reports through the
        kernel counters instead).
        """
        if round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {round_index}")
        edge = self._edge_rounds.get(cid)
        if not edge or round_index == 1:
            return [0] * len(successors)
        get = edge.get
        out = []
        for succ in successors:
            rounds = get(succ)
            out.append(bisect_left(rounds, round_index) if rounds else 0)
        return out

    def selectivity_hits_block_pos(
        self,
        cid: int,
        predecessor: int,
        successors: List[int],
        round_index: int,
    ) -> List[int]:
        """Position-aware counterpart of :meth:`selectivity_hits_block`:
        matching-entry counts conditioned on ``predecessor``, one bisect
        per successor over the ``(predecessor, successor)`` round index.

        Exactly the numerators :meth:`selectivity` computes with a
        ``predecessor`` argument — the batched (numpy) backend scores
        predecessor-differentiated columns from these, bit-identical to
        the scalar path.  Counts only entries strictly before
        ``round_index``; result order matches ``successors``.
        """
        if round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {round_index}")
        pos = self._pos_rounds.get(cid)
        if not pos or round_index == 1:
            return [0] * len(successors)
        get = pos.get
        out = []
        for succ in successors:
            rounds = get((predecessor, succ))
            out.append(bisect_left(rounds, round_index) if rounds else 0)
        return out

    def selectivity_naive(
        self,
        cid: int,
        successor: int,
        round_index: int,
        predecessor: Optional[int] = None,
    ) -> float:
        """Reference implementation: linear scan over the raw records.

        Kept as the executable specification for :meth:`selectivity`; the
        differential tests assert bit-identical results over randomized
        workloads (records, eviction, forgetting, position-aware queries).
        """
        if round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {round_index}")
        max_entries = round_index - 1
        if max_entries == 0:
            return 0.0
        hits = 0
        for rec in self._records.get(cid, ()):
            if rec.round_index >= round_index:
                continue  # never peek at the current/future rounds
            if rec.successor != successor:
                continue
            if predecessor is not None and rec.predecessor != predecessor:
                continue
            hits += 1
        return min(1.0, hits / max_entries)

    def latest_rounds(self) -> Dict[int, int]:
        """Highest stored round index per series cid."""
        return {
            cid: max(rounds[-1] for rounds in edges.values())
            for cid, edges in self._edge_rounds.items()
            if edges
        }

    def known_successors(self, cid: int) -> List[int]:
        """Distinct successors seen for a series (sorted, deterministic)."""
        return sorted(self._edge_rounds.get(cid, {}))

    def series_count(self) -> int:
        """Number of distinct series this node has forwarded for."""
        return len(self._records)

    def total_records(self) -> int:
        return sum(len(v) for v in self._records.values())

    def forget_series(self, cid: int) -> None:
        """Drop all history for a completed series (storage reclamation)."""
        self._records.pop(cid, None)
        self._edge_rounds.pop(cid, None)
        self._pos_rounds.pop(cid, None)
        self.version += 1
        if self._subscribers:
            self._notify("on_forget", cid)

    # -- attack surface (§5(3)) -----------------------------------------
    def observed_edges(self) -> List[Tuple[int, int, int]]:
        """(cid, predecessor, successor) tuples — what a *compromised* node
        leaks to an adversary analysing history profiles."""
        out = []
        for cid, bucket in self._records.items():
            for rec in bucket:
                out.append((cid, rec.predecessor, rec.successor))
        return out
