"""Path establishment protocol (§2.2).

The initiator does not know the forwarders (only its first hop), so a path
is formed by *contract propagation*: each node receives the contract
``(P_f, P_r)`` with the payload, makes its participation/routing decision,
and passes the contract on.  After the responder receives the payload, a
confirmation travels the reverse path, each forwarder appending its path
information, which the initiator uses to recreate and validate the path.

Termination follows the paper's note that "both Crowds like probabilistic
forwarding and hop-distance based forwarding are applicable":

- ``TerminationPolicy.crowds(p_f)``: after each forwarder, the payload is
  forwarded with probability ``p_f`` and delivered to the responder with
  probability ``1 - p_f`` (geometric path lengths, mean ``1/(1-p_f)``);
- ``TerminationPolicy.hop_ttl(L)``: deliver after exactly ``L`` forwarders.

A node may also deliver implicitly by *selecting the responder* as its
next hop when the responder is one of its neighbours (that edge has
quality 1 and is therefore highly attractive under the utility models).

A dead end (the current node declines or has no live neighbour) tears the
partial path down and the initiator re-forms from scratch — one **path
reformation**.  After ``max_attempts`` reformations the round fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.edge_quality import QualityWeights
from repro.core.history import HistoryProfile
from repro.core.kernels import (
    BatchPlanner,
    WorldArrays,
    default_backend,
    validate_backend,
)
from repro.core.path import Path, PathFailure, SeriesLog
from repro.core.routing import (
    ForwardingContext,
    RandomRouting,
    RoutingStrategy,
    _null_tracer,
)
from repro.network.overlay import Overlay
from repro.sim.faults import FaultInjector, FaultPlan, RetryPolicy

if TYPE_CHECKING:  # lazy: core stays loadable without the obs layer (ARCH001)
    from repro.obs.events import EventBus

#: Hard cap on forwarders per path: a path still forwarding at this
#: length is delivered to the responder.
MAX_PATH_LENGTH = 30

#: Forwarders per path under hop-distance termination (a scenario's
#: ``termination="ttl"``).
HOP_TTL = 3


@dataclass(frozen=True)
class TerminationPolicy:
    """When a forwarder delivers to the responder instead of forwarding."""

    kind: str
    forward_probability: float = 0.0
    ttl: int = 0

    @classmethod
    def crowds(cls, forward_probability: float = 0.66) -> "TerminationPolicy":
        """Crowds-style coin flip with forwarding probability ``p_f``."""
        if not 0.0 <= forward_probability < 1.0:
            raise ValueError(
                f"forward probability must be in [0, 1), got {forward_probability}"
            )
        return cls(kind="crowds", forward_probability=forward_probability)

    @classmethod
    def hop_ttl(cls, ttl: int) -> "TerminationPolicy":
        """Deliver after exactly ``ttl`` forwarders."""
        if ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {ttl}")
        return cls(kind="ttl", ttl=ttl)

    def should_deliver(self, forwarders_so_far: int, rng: np.random.Generator) -> bool:
        """Decide delivery given ``forwarders_so_far`` already on the path.

        Called when a forwarder is about to route; at least one forwarder
        is always used (the initiator never contacts R directly, or there
        would be no anonymity).
        """
        if forwarders_so_far < 1:
            return False
        if self.kind == "crowds":
            return bool(rng.random() >= self.forward_probability)
        if self.kind == "ttl":
            return forwarders_so_far >= self.ttl
        raise ValueError(f"unknown termination kind {self.kind!r}")

    def expected_length(self) -> float:
        """Expected number of forwarders per path."""
        if self.kind == "crowds":
            return 1.0 / (1.0 - self.forward_probability)
        return float(self.ttl)


@dataclass
class HopEvent:
    """One forwarding instance, for cost accounting and traffic analysis."""

    cid: int
    round_index: int
    sender: int
    receiver: int


@dataclass
class PathBuilder:
    """Builds paths hop-by-hop under the configured strategies.

    ``good_strategy`` drives non-malicious nodes; malicious nodes always
    use ``adversary_strategy`` (random routing per §2.4 — an adversary's
    objective is de-anonymisation, not income).
    """

    overlay: Overlay
    cost_model: CostModel
    histories: Mapping[int, HistoryProfile]
    rng: np.random.Generator
    good_strategy: RoutingStrategy
    adversary_strategy: RoutingStrategy = field(default_factory=RandomRouting)
    termination: TerminationPolicy = field(
        default_factory=lambda: TerminationPolicy.crowds(0.66)
    )
    weights: QualityWeights = field(default_factory=QualityWeights)
    max_path_length: int = MAX_PATH_LENGTH
    max_attempts: int = 10
    #: Per-hop message-loss probability.  Thin compatibility alias for the
    #: unified injector: when no ``fault_injector`` is supplied, a nonzero
    #: value builds a single-channel :class:`FaultPlan` drawing from the
    #: builder's own ``rng`` (bit-identical to the legacy inline draw).
    loss_probability: float = 0.0
    #: Unified fault source (repro.sim.faults): per-hop message loss and
    #: mid-round forwarder crashes both tear the partial path down,
    #: forcing a reformation; crashes additionally report the victim
    #: through the injector's ``on_crash`` callback.
    fault_injector: Optional[FaultInjector] = None
    #: Optional guard-node defence: when set, the initiator's first hop is
    #: the pinned guard (see repro.core.defenses.GuardRegistry).
    guard_registry: Optional[object] = None
    #: Optional sink for per-hop events (traffic analysis, cost accounting).
    hop_listener: Optional[Callable[[HopEvent], None]] = None
    #: Optional structured event bus: ``path.form`` / ``path.reform`` /
    #: ``path.fail`` per round.  Events carry the *wire* cid the builder
    #: was called with (what an on-path observer sees under cid rotation).
    bus: Optional["EventBus"] = field(default=None, repr=False)
    #: Span tracer for ``path.build`` (one span per round built); shared
    #: with every :class:`ForwardingContext` the builder creates.
    tracer: object = field(default_factory=_null_tracer, repr=False)
    #: Scoring backend for the contexts this builder creates: ``None``
    #: resolves :func:`repro.core.kernels.default_backend` (the
    #: ``REPRO_BACKEND`` environment variable, defaulting to the scalar
    #: reference), or pass ``"python"``/``"numpy"`` explicitly.
    backend: Optional[str] = None
    #: Model I small-world crossover for the numpy backend (see
    #: :class:`ForwardingContext.kernel_crossover`); tests pin this to
    #: False to force the kernels on small candidate sets.
    kernel_crossover: bool = True
    #: Position-aware selectivity (§2.3 predecessor differentiation) for
    #: every context this builder creates — both backends support it.
    position_aware: bool = False
    #: Cumulative reformation count across all rounds built.
    reformations: int = 0
    #: Hops lost to failure injection.
    hops_lost: int = 0
    #: Shared :class:`WorldArrays` for the numpy backend, created on the
    #: first round built so topology/availability arrays amortise across
    #: every round and series this builder serves.
    _world: Optional[WorldArrays] = field(default=None, repr=False, compare=False)
    #: Shared :class:`BatchPlanner` over ``_world``: one frontier per
    #: connection, so concurrent series' quality rows are scored in one
    #: stacked kernel call (see :meth:`BatchPlanner.prepare`).
    _planner: Optional[BatchPlanner] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {self.loss_probability}"
            )
        if self.fault_injector is None and self.loss_probability > 0.0:
            self.fault_injector = FaultInjector(
                plan=FaultPlan(hop_loss=self.loss_probability), rng=self.rng
            )
        self.backend = (
            default_backend() if self.backend is None else validate_backend(self.backend)
        )

    def _strategy_for(self, node_id: int) -> RoutingStrategy:
        node = self.overlay.nodes[node_id]
        return self.adversary_strategy if node.malicious else self.good_strategy

    def _context(self, cid: int, round_index: int, contract: Contract, responder: int) -> ForwardingContext:
        world = None
        planner = None
        if self.backend == "numpy":
            if self._world is None:
                self._world = WorldArrays(self.overlay)
                self._planner = BatchPlanner(self._world)
            world = self._world
            planner = self._planner
        return ForwardingContext(
            cid=cid,
            round_index=round_index,
            contract=contract,
            responder=responder,
            overlay=self.overlay,
            cost_model=self.cost_model,
            histories=self.histories,
            rng=self.rng,
            weights=self.weights,
            position_aware_selectivity=self.position_aware,
            tracer=self.tracer,
            backend=self.backend,
            kernel_crossover=self.kernel_crossover,
            world=world,
            planner=planner,
        )

    def build_round(
        self,
        cid: int,
        round_index: int,
        initiator: int,
        responder: int,
        contract: Contract,
    ) -> Path:
        """Establish the path for one round; raises :class:`PathFailure`
        after ``max_attempts`` reformations."""
        if not self.overlay.is_online(initiator):
            if self.bus is not None:
                self.bus.emit(
                    "path.fail",
                    cid=cid,
                    round_index=round_index,
                    node=initiator,
                    reason="initiator offline",
                    reformations=0,
                )
            raise PathFailure("initiator offline", reformations=0)
        with self.tracer.span("path.build"):
            context = self._context(cid, round_index, contract, responder)
            attempts = 0
            local_reformations = 0
            while attempts < self.max_attempts:
                attempts += 1
                forwarders = self._attempt(context, initiator, responder)
                if forwarders is not None:
                    path = Path(
                        cid=cid,
                        round_index=round_index,
                        initiator=initiator,
                        responder=responder,
                        forwarders=tuple(forwarders),
                    )
                    self._commit(path)
                    if self._planner is not None:
                        # Announce the next round now that its history is
                        # final: another connection's decision can score
                        # this one's quality row inside its own batch.
                        self._planner.prepare(cid, round_index + 1, responder)
                    if self.bus is not None:
                        self.bus.emit(
                            "path.form",
                            cid=cid,
                            round_index=round_index,
                            node=initiator,
                            n_forwarders=len(forwarders),
                            reformations=local_reformations,
                        )
                    return path
                local_reformations += 1
                self.reformations += 1
                if self.fault_injector is not None:
                    self.fault_injector.stats.reformations += 1
                if self.bus is not None:
                    self.bus.emit(
                        "path.reform",
                        cid=cid,
                        round_index=round_index,
                        node=initiator,
                        attempt=attempts,
                    )
        if self.bus is not None:
            self.bus.emit(
                "path.fail",
                cid=cid,
                round_index=round_index,
                node=initiator,
                reason="attempts exhausted",
                reformations=local_reformations,
            )
        # The failure carries the reformation count accumulated over *all*
        # attempts of this round, not just the final attempt.
        raise PathFailure(
            f"no path after {attempts} attempts", reformations=local_reformations
        )

    def build_round_with_retry(
        self,
        cid: int,
        round_index: int,
        initiator: int,
        responder: int,
        contract: Contract,
        retry: RetryPolicy,
        retry_rng: Optional[np.random.Generator] = None,
    ) -> Path:
        """Recovery wrapper: re-run :meth:`build_round` per ``retry``.

        On final exhaustion the raised :class:`PathFailure` carries the
        reformation count **accumulated across every retried build**, not
        the count from the last attempt only — the recovery layer must
        not under-report how much work the failure consumed.  (Backoff
        delays are ignored here; the simulation-time variant lives in the
        scenario's pair process, where a clock exists.)
        """
        total_reformations = 0
        last: Optional[PathFailure] = None
        for attempt in range(retry.max_retries + 1):
            try:
                path = self.build_round(cid, round_index, initiator, responder, contract)
            except PathFailure as exc:
                total_reformations += exc.reformations
                last = exc
                if attempt < retry.max_retries and self.fault_injector is not None:
                    self.fault_injector.stats.path_retries += 1
                continue
            return path
        assert last is not None
        raise PathFailure(
            f"{last.reason} (after {retry.max_retries} retries)",
            reformations=total_reformations,
        )

    def _attempt(
        self, context: ForwardingContext, initiator: int, responder: int
    ) -> Optional[List[int]]:
        """One end-to-end formation attempt; None on dead end."""
        current = initiator
        predecessor: Optional[int] = None
        forwarders: List[int] = []
        while True:
            if len(forwarders) >= self.max_path_length:
                # Runaway path (possible under adversarial random routing):
                # force delivery rather than loop forever.
                self._emit_hop(context, current, responder)
                return forwarders
            # should_deliver() is False while no forwarder is on the path
            # yet, so the initiator's own first decision never delivers.
            # Note the check must NOT be skipped when `current` happens to
            # be the initiator re-appearing as a mid-path forwarder.
            if self.termination.should_deliver(len(forwarders), self.rng):
                self._emit_hop(context, current, responder)
                return forwarders
            node = self.overlay.nodes[current]
            nxt: Optional[int] = None
            if current == initiator and self.guard_registry is not None:
                nxt = self.guard_registry.live_guard(
                    initiator, exclude=(responder,)
                )
            if nxt is None:
                strategy = self._strategy_for(current)
                nxt = strategy.select_next_hop(node, predecessor, context)
            if nxt is None:
                return None  # dead end -> reformation
            if self.fault_injector is not None:
                if self.fault_injector.lose_hop():
                    self.hops_lost += 1
                    return None  # message lost in transit -> reformation
                if self.fault_injector.crash_forwarder(nxt):
                    return None  # selected forwarder crashed -> reformation
            self._emit_hop(context, current, nxt)
            forwarders.append(nxt)
            predecessor, current = current, nxt

    def _emit_hop(self, context: ForwardingContext, sender: int, receiver: int) -> None:
        if self.hop_listener is not None:
            self.hop_listener(
                HopEvent(
                    cid=context.cid,
                    round_index=context.round_index,
                    sender=sender,
                    receiver=receiver,
                )
            )

    def _commit(self, path: Path) -> None:
        """Reverse-path confirmation: each forwarder stores its hop record
        (Table 1) so future rounds can compute selectivity."""
        for predecessor, node_id, successor in path.hop_records():
            self.histories[node_id].record(
                cid=path.cid,
                round_index=path.round_index,
                predecessor=predecessor,
                successor=successor,
            )

    def validate(self, path: Path, reported_forwarders: Tuple[int, ...]) -> bool:
        """Initiator-side path validation: the recreated path from the
        confirmation must match what was reported.  Used by the fraud tests
        (a cheater inflating its instance count fails validation)."""
        return tuple(path.forwarders) == tuple(reported_forwarders)


@dataclass
class ConnectionSeries:
    """Drives the k recurring connections of one (I, R) pair (§2.1)."""

    cid: int
    initiator: int
    responder: int
    contract: Contract
    builder: PathBuilder
    #: Optional cid-rotation defence (repro.core.defenses.CidRotator):
    #: rounds are built under rotating wire cids, so captured history
    #: profiles link at most one epoch; the series log keeps true ids.
    cid_rotator: Optional[object] = None
    log: SeriesLog = field(init=False)
    _round: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.log = SeriesLog(
            cid=self.cid, initiator=self.initiator, responder=self.responder
        )

    @property
    def rounds_attempted(self) -> int:
        return self._round

    def run_round(self) -> Optional[Path]:
        """Attempt the next recurring connection; None if it failed."""
        self._round += 1
        wire_cid, wire_round = self.cid, self._round
        if self.cid_rotator is not None:
            wire_cid = self.cid_rotator.wire_cid(self._round)
            wire_round = self.cid_rotator.epoch_round(self._round)
        try:
            path = self.builder.build_round(
                cid=wire_cid,
                round_index=wire_round,
                initiator=self.initiator,
                responder=self.responder,
                contract=self.contract,
            )
        except PathFailure as exc:
            self.log.failed_rounds += 1
            self.log.reformations += exc.reformations
            return None
        if wire_cid != self.cid or wire_round != self._round:
            # Bookkeeping path under the series' true identifiers.
            path = Path(
                cid=self.cid,
                round_index=self._round,
                initiator=path.initiator,
                responder=path.responder,
                forwarders=path.forwarders,
            )
        self.log.add(path)
        return path

    def retry_round(self) -> Optional[Path]:
        """Re-attempt the current (failed) round — the recovery layer's
        entry point after a backoff delay.

        A success *converts* the earlier failure: ``failed_rounds`` is
        decremented and the path is logged under the same round index.
        Reformations accumulated by the failed builds are retained (they
        happened; recovery does not erase degradation).
        """
        if self._round == 0:
            raise ValueError("no round attempted yet; call run_round first")
        if self.log.paths and self.log.paths[-1].round_index == self._round:
            raise ValueError(f"round {self._round} already succeeded")
        wire_cid, wire_round = self.cid, self._round
        if self.cid_rotator is not None:
            wire_cid = self.cid_rotator.wire_cid(self._round)
            wire_round = self.cid_rotator.epoch_round(self._round)
        try:
            path = self.builder.build_round(
                cid=wire_cid,
                round_index=wire_round,
                initiator=self.initiator,
                responder=self.responder,
                contract=self.contract,
            )
        except PathFailure as exc:
            self.log.reformations += exc.reformations
            return None
        if wire_cid != self.cid or wire_round != self._round:
            path = Path(
                cid=self.cid,
                round_index=self._round,
                initiator=path.initiator,
                responder=path.responder,
                forwarders=path.forwarders,
            )
        self.log.failed_rounds = max(0, self.log.failed_rounds - 1)
        self.log.add(path)
        return path

    def run(self, rounds: int) -> SeriesLog:
        """Run ``rounds`` recurring connections back-to-back."""
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        for _ in range(rounds):
            self.run_round()
        return self.log

    def settlement(self) -> Dict[int, float]:
        """What the initiator owes each forwarder at series end:
        ``m_x * P_f + P_r / ||pi||`` (§2.2).  Empty if no round completed.

        Amounts are computed in one vectorised expression over the
        union set.  ``int64 * float64 + float64`` rounds identically to
        the scalar per-member arithmetic, and the result dict preserves
        the union set's iteration order — downstream float
        accumulations (escrow budgets, payoff means) see the exact
        sequence the per-member loop produced.
        """
        union = self.log.union_forwarder_set()
        if not union:
            return {}
        share = self.contract.routing_benefit / len(union)
        instances = self.log.total_instances()
        ids = list(union)
        counts = np.fromiter(
            (instances.get(x, 0) for x in ids), dtype=np.int64, count=len(ids)
        )
        amounts = counts * self.contract.forwarding_benefit + share
        return dict(zip(ids, amounts.tolist()))
