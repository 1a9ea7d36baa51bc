"""Mutual anonymity via rendezvous points (§1's "responder anonymity";
related work [28]).

The base protocol hides the initiator but tells every forwarder who R
is.  For mutual anonymity, the responder hides behind a **rendezvous
node** Z, Tor-hidden-service style:

1. R picks a random online Z, registers a **pseudonym** there, and
   builds its own anonymous half-path *from itself to Z* (so Z learns
   the pseudonym and the last forwarder of R's half — never R);
2. a directory maps pseudonym -> Z (public, like a hidden-service
   descriptor);
3. an initiator that knows the pseudonym builds its half-path I -> Z and
   addresses the pseudonym; Z splices the two halves: payload flows
   I -> ... -> Z -> (reverse of R's half) -> R.

Anonymity argument: every forwarder on I's half sees Z as the
destination (not R); every forwarder on R's half sees Z as the
destination (not I); Z itself sees only two forwarders and a pseudonym.
Provided both halves have at least one forwarder — which the base
protocol guarantees — **no single node observes both endpoints**
(:meth:`MutualPath.mutually_anonymous` checks it).

Both endpoints pay for their own half (mutual anonymity costs both
parties), so settlements compose from two ordinary series settlements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.contracts import Contract
from repro.core.path import Path, PathFailure
from repro.core.protocol import PathBuilder


@dataclass(frozen=True)
class RendezvousDescriptor:
    """The public directory entry for one hidden responder."""

    pseudonym: str
    rendezvous: int


@dataclass
class RendezvousRegistry:
    """Pseudonym directory plus the responder-side secrets.

    The *directory* (pseudonym -> rendezvous node) is public; the mapping
    pseudonym -> responder exists only here, standing in for the
    responder's own knowledge — no protocol message ever carries it.
    """

    overlay: "object"
    rng: np.random.Generator
    _directory: Dict[str, RendezvousDescriptor] = field(default_factory=dict)
    _owners: Dict[str, int] = field(default_factory=dict, repr=False)

    def register(self, responder: int, pseudonym: str) -> RendezvousDescriptor:
        """Responder-side: pick a rendezvous node and publish the entry."""
        if pseudonym in self._directory:
            raise ValueError(f"pseudonym {pseudonym!r} already registered")
        z = self.overlay.random_online_peer(exclude={responder})
        if z is None:
            raise ValueError("no online candidate for a rendezvous node")
        descriptor = RendezvousDescriptor(pseudonym=pseudonym, rendezvous=z)
        self._directory[pseudonym] = descriptor
        self._owners[pseudonym] = responder
        return descriptor

    def lookup(self, pseudonym: str) -> RendezvousDescriptor:
        """Initiator-side directory lookup."""
        try:
            return self._directory[pseudonym]
        except KeyError:
            raise KeyError(f"unknown pseudonym {pseudonym!r}") from None

    def owner(self, pseudonym: str) -> int:
        """Responder identity — registry-internal, never on the wire."""
        return self._owners[pseudonym]


@dataclass(frozen=True)
class MutualPath:
    """One spliced round: I's half to Z, R's half to Z (used reversed)."""

    pseudonym: str
    rendezvous: int
    initiator_half: Path
    responder_half: Path

    @property
    def initiator(self) -> int:
        return self.initiator_half.initiator

    @property
    def responder(self) -> int:
        return self.responder_half.initiator  # R *built* its half

    @property
    def forwarder_set(self) -> FrozenSet[int]:
        return self.initiator_half.forwarder_set | self.responder_half.forwarder_set

    @property
    def total_length(self) -> int:
        """End-to-end hop count: both halves plus the splice at Z."""
        return self.initiator_half.length + self.responder_half.length + 1

    def endpoint_observers(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """(nodes adjacent to I, nodes adjacent to R) — who *could* learn
        an endpoint's address (without knowing it is an endpoint)."""
        i_adj = {self.initiator_half.forwarders[0]} if self.initiator_half.forwarders else set()
        r_adj = {self.responder_half.forwarders[0]} if self.responder_half.forwarders else set()
        return frozenset(i_adj), frozenset(r_adj)

    def mutually_anonymous(self) -> bool:
        """No single node is adjacent to both endpoints."""
        i_adj, r_adj = self.endpoint_observers()
        return not (i_adj & r_adj)


@dataclass
class MutualConnection:
    """Drives recurring mutually-anonymous rounds for one (I, pseudonym)."""

    registry: RendezvousRegistry
    builder: PathBuilder
    cid: int
    initiator: int
    pseudonym: str
    contract: Contract
    rounds_completed: int = 0
    failed_rounds: int = 0
    paths: List[MutualPath] = field(default_factory=list)

    def run_round(self) -> Optional[MutualPath]:
        descriptor = self.registry.lookup(self.pseudonym)
        responder = self.registry.owner(self.pseudonym)
        round_index = self.rounds_completed + self.failed_rounds + 1
        try:
            half_i = self.builder.build_round(
                cid=self.cid,
                round_index=round_index,
                initiator=self.initiator,
                responder=descriptor.rendezvous,
                contract=self.contract,
            )
            # R's half uses a disjoint wire cid so the halves' histories
            # cannot be joined by cid.
            half_r = self.builder.build_round(
                cid=self.cid + 2**30,
                round_index=round_index,
                initiator=responder,
                responder=descriptor.rendezvous,
                contract=self.contract,
            )
        except PathFailure:
            self.failed_rounds += 1
            return None
        mp = MutualPath(
            pseudonym=self.pseudonym,
            rendezvous=descriptor.rendezvous,
            initiator_half=half_i,
            responder_half=half_r,
        )
        self.paths.append(mp)
        self.rounds_completed += 1
        return mp

    def settlements(self) -> Tuple[Dict[int, float], Dict[int, float]]:
        """(initiator-funded, responder-funded) payment maps.

        Each endpoint pays the §2.2 formula over its own half's union
        set and instance counts.
        """
        def settle(half_paths: List[Path]) -> Dict[int, float]:
            union: set = set()
            instances: Dict[int, int] = {}
            for p in half_paths:
                union |= p.forwarder_set
                for node, m in p.forwarding_instances().items():
                    instances[node] = instances.get(node, 0) + m
            if not union:
                return {}
            share = self.contract.routing_benefit / len(union)
            # Vectorised over the union set, preserving its iteration
            # order (int64 * float64 + float64 matches the scalar
            # per-member arithmetic bit for bit).
            ids = list(union)
            counts = np.fromiter(
                (instances.get(x, 0) for x in ids),
                dtype=np.int64,
                count=len(ids),
            )
            amounts = counts * self.contract.forwarding_benefit + share
            return dict(zip(ids, amounts.tolist()))

        return (
            settle([mp.initiator_half for mp in self.paths]),
            settle([mp.responder_half for mp in self.paths]),
        )
