"""Scenario orchestration: wire every subsystem together and run one
simulation end-to-end.

The flow (matching §3's setup):

1. bootstrap an overlay of N nodes, a fraction ``f`` flagged malicious;
2. start churn lifecycles and the active prober;
3. pick ``n_pairs`` (I, R) pairs and give each a contract with ``P_f``
   drawn from [50, 100] and ``P_r = tau * P_f``;
4. each pair runs its recurring rounds as a simulation process (rounds
   separated by jittered gaps, so churn interleaves with forwarding);
5. at series end the initiator settles through the bank escrow (or a
   direct transfer table when ``use_bank=False``);
6. per-node payoffs (earnings - costs) and per-series statistics are
   collected into a :class:`ScenarioResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.contracts import PAYLOAD_SIZE, Contract, draw_contract
from repro.core.costs import CostModel
from repro.core.history import HistoryProfile
from repro.core.metrics import ConnectionSeriesStats
from repro.core.path import SeriesLog
from repro.core.protocol import (
    HOP_TTL,
    MAX_PATH_LENGTH,
    ConnectionSeries,
    HopEvent,
    PathBuilder,
    TerminationPolicy,
)
from repro.core.routing import RandomRouting, strategy_by_name
from repro.experiments.config import ExperimentConfig
from repro.network.bandwidth import BandwidthModel
from repro.network.churn import ChurnModel, node_lifecycle
from repro.network.node import NodeState
from repro.network.overlay import Overlay
from repro.network.probing import PROBE_PERIOD, ActiveProber
from repro.obs import MetricsRegistry, Observability, RunTrace
from repro.obs.tracing import NULL_TRACER, SpanRecord, SpanTracer
from repro.payment.bank import DEFAULT_KEY_BITS, Bank
from repro.payment.escrow import SeriesEscrow
from repro.sim.distributions import Exponential, Pareto
from repro.sim.engine import Environment
from repro.sim.faults import BankUnavailable, FaultInjector, RetryPolicy
from repro.sim.rng import RandomStreams

#: Minutes between a pair's recurring rounds.  The paper does not state
#: its inter-round timing; 5 minutes (HTTP-style recurring traffic)
#: against 60-minute median sessions reproduces the paper's clear
#: figure-5 separation between utility and random routing.
INTER_ROUND_GAP = 5.0

#: Endpoints churn like every other node: with 100 pairs over 40 nodes
#: nearly every node is an endpoint.  A round whose initiator is offline
#: waits for it to rejoin, for at most this many probe periods; then the
#: round fails.
INITIATOR_WAIT_ROUNDS = 12

#: Working capital the bank mints across the initiators; each one gets
#: at least its worst-case series outlay on top.
ENDOWMENT = 1_000_000.0

#: Cap on ``own earnings / mean earnings`` in the incentive->availability
#: feedback (``ChurnConfig.incentive_coupling``), so one big earner's
#: sessions stay bounded.
INCENTIVE_COUPLING_CAP = 4.0


@dataclass
class ScenarioResult:
    """Everything the harness needs from one run."""

    config: ExperimentConfig
    #: Net payoff (earnings - transmission costs - participation cost) per node.
    payoffs: Dict[int, float]
    #: Gross earnings per node (settlement income only).
    earnings: Dict[int, float]
    #: Cost per node (transmission + participation).
    costs: Dict[int, float]
    series_stats: List[ConnectionSeriesStats]
    series_logs: List[SeriesLog]
    #: Per-series settlement maps keyed by cid (node -> amount paid).
    series_settlements: Dict[int, Dict[int, float]]
    good_node_ids: Set[int]
    malicious_node_ids: Set[int]
    total_reformations: int
    sim_duration: float
    bank_audit_ok: Optional[bool]
    overlay: Overlay = field(repr=False, default=None)
    #: Simulation times at which each series' rounds were issued
    #: (cid -> times); feeds the intersection-attack evaluation.
    round_times: Dict[int, List[float]] = field(default_factory=dict)
    #: Route-validation counters (only populated when
    #: ``config.validate_routes``): rounds validated / failed validation.
    routes_validated: int = 0
    routes_invalid: int = 0
    #: Per-round (payload latency, round-trip latency) pairs in simulated
    #: minutes (only populated when ``config.temporal_forwarding``).
    round_latencies: List[Tuple[float, float]] = field(default_factory=list)
    #: Hot-path profiling counters accumulated during this run (delta of
    #: :data:`repro.sim.monitoring.PERF` across the run): selectivity
    #: queries, availability cache hits and misses, edges scored, SPNE
    #: memo reuse.
    perf_counters: Dict[str, int] = field(default_factory=dict)
    #: Fault/recovery degradation counters for this run (snapshot of the
    #: injector's :class:`~repro.sim.monitoring.DegradationCounters`):
    #: injected faults (drops, crashes, timeouts, bank denials) plus the
    #: recovery layer's work (reformations, path/probe/settlement
    #: retries, dropped rounds, deferred settlements).  All-zero when no
    #: fault plan was active.
    degradation: Dict[str, int] = field(default_factory=dict)
    #: Per-phase wall-clock seconds, read from the run's spans:
    #: ``setup`` (construction up to the first ``env.run``), ``simulate``
    #: (the event loop), ``settle`` (the summed ``settle.series`` spans —
    #: settlement runs *inside* the event loop, so it is a subset of
    #: ``simulate``, broken out for attribution), and ``collect``
    #: (aggregation after the loop).  Always populated.
    phase_timings: Dict[str, float] = field(default_factory=dict)
    #: Structured run trace (events + spans), populated only when
    #: ``config.obs`` enabled tracing; None otherwise.
    trace: Optional[RunTrace] = field(default=None, repr=False)
    #: Metrics registry for this run: perf/fault counters, scenario and
    #: bank gauges, phase timings — exportable via ``to_prometheus()`` /
    #: ``to_json()``.  Always populated (collected after the run).
    metrics: Optional[MetricsRegistry] = field(default=None, repr=False)
    #: Per-node relative capacity (populated when ``config.capacity``).
    capacities: Optional[Dict[int, float]] = None
    #: (sim time, ``P_f``) price path under dynamic pricing: the market
    #: tatonnement's adjustment history, or the single Stackelberg
    #: equilibrium point.  Empty without ``config.pricing``.
    pricing_trace: List[Tuple[float, float]] = field(default_factory=list)
    #: Solved :class:`repro.gametheory.stackelberg.StackelbergEquilibrium`
    #: (stackelberg pricing mode only).
    stackelberg: Optional[object] = None
    #: Every identity the Sybil colony controlled (populated when
    #: ``config.sybil``; these ids are excluded from ``good_node_ids``).
    sybil_ids: Set[int] = field(default_factory=set)
    #: Colony accounting: identities_used, whitewashes,
    #: subsidy_collected, colony_income, value_per_identity (income plus
    #: subsidies per identity used).
    sybil_stats: Dict[str, float] = field(default_factory=dict)

    def good_payoffs(self) -> List[float]:
        """Total net payoff per non-malicious node (CDF figures 6-7).

        The paper's skew argument ("if a peer is selected ... it is very
        likely that it will be selected again for future connections")
        concerns cumulative per-node income, so the CDFs use totals.
        """
        return [self.payoffs.get(n, 0.0) for n in sorted(self.good_node_ids)]

    def good_series_payoffs(self) -> List[float]:
        """Settlement received per (good forwarder, series) pair.

        This is the paper's figure-3/4 payoff: ``m*P_f + P_r/||pi||`` for
        one series membership.  It falls as the adversary fraction grows
        because random routing inflates ``||pi||``, diluting both the
        shared routing benefit and each member's instance count — the
        mechanism §3 describes for the payoff decline.
        """
        out: List[float] = []
        for settlement in self.series_settlements.values():
            for node, amount in settlement.items():
                if node in self.good_node_ids:
                    out.append(amount)
        return out

    def average_good_series_payoff(self) -> float:
        p = self.good_series_payoffs()
        return float(np.mean(p)) if p else 0.0

    def forwarder_set_sizes(self) -> List[int]:
        return [s.forwarder_set_size for s in self.series_stats if s.rounds_completed]

    def average_forwarder_set_size(self) -> float:
        sizes = self.forwarder_set_sizes()
        return float(np.mean(sizes)) if sizes else 0.0

    def average_good_payoff(self) -> float:
        p = self.good_payoffs()
        return float(np.mean(p)) if p else 0.0

    def average_path_quality(self) -> float:
        q = [s.path_quality for s in self.series_stats if s.rounds_completed]
        return float(np.mean(q)) if q else 0.0

    def intersection_anonymity(self, max_pairs: Optional[int] = None) -> Dict[str, float]:
        """Mount the §2.1 intersection attack against every pair.

        For each series, the attacker observes the online population at
        that pair's round times and intersects.  Returns the mean
        anonymity degree (1 = no information gained, 0 = identified) and
        the fraction of initiators fully exposed.
        """
        from repro.adversary.intersection import IntersectionAttack

        degrees: List[float] = []
        exposed = 0
        evaluated = 0
        for s in self.series_stats[: max_pairs or len(self.series_stats)]:
            times = self.round_times.get(s.cid)
            if not times:
                continue
            attack = IntersectionAttack(
                trace=self.overlay.trace,
                initiator=s.initiator,
                excluded=frozenset({s.responder}),
            )
            res = attack.observe_rounds(times)
            degrees.append(res.anonymity_degree)
            exposed += int(res.exposed)
            evaluated += 1
        if evaluated == 0:
            raise ValueError("no series with recorded round times")
        return {
            "mean_anonymity_degree": float(np.mean(degrees)),
            "exposure_rate": exposed / evaluated,
            "pairs_evaluated": float(evaluated),
        }

    def coalition_results(
        self,
        members: Optional[Set[int]] = None,
        max_pairs: Optional[int] = None,
    ) -> Dict[int, Optional[object]]:
        """Per-series pooled coalition intersection attack (§2.1 extended).

        Unlike :meth:`intersection_anonymity` (an omniscient observer who
        sees every round), the coalition only learns a series was active
        when one of its members forwarded on (or terminated) that round's
        path — so each series is attacked over the *pooled subset* of
        rounds the coalition actually touched.  ``members`` defaults to
        all malicious nodes.  Returns ``cid ->``
        :class:`~repro.adversary.intersection.IntersectionResult` (None
        for series the coalition never observed).
        """
        from repro.adversary.intersection import CoalitionObserver

        coalition = frozenset(
            members if members is not None else self.malicious_node_ids
        )
        observer = CoalitionObserver(trace=self.overlay.trace, members=coalition)
        logs = self.series_logs[: max_pairs or len(self.series_logs)]
        for log in logs:
            times = self.round_times.get(log.cid, [])
            for path in log.paths:
                # Wire cids differ from series cids under rotation; pool
                # the observation under the series cid the attack targets.
                if 1 <= path.round_index <= len(times):
                    observer.observe_path(
                        path, times[path.round_index - 1], series_cid=log.cid
                    )
        return {
            log.cid: observer.attack(
                log.cid,
                log.initiator,
                excluded=frozenset({log.responder}) | coalition,
            )
            for log in logs
        }

    def coalition_intersection(
        self,
        members: Optional[Set[int]] = None,
        max_pairs: Optional[int] = None,
    ) -> Dict[str, float]:
        """Aggregate degradation statistics for the pooled coalition
        attack (see :meth:`coalition_results`); series the coalition
        never observed count as fully anonymous."""
        coalition = frozenset(
            members if members is not None else self.malicious_node_ids
        )
        results = self.coalition_results(members=coalition, max_pairs=max_pairs)
        logs = self.series_logs[: max_pairs or len(self.series_logs)]
        degrees: List[float] = []
        observed_rounds: List[int] = []
        exposed = 0
        evaluated = 0
        for res in results.values():
            if res is None:
                continue
            evaluated += 1
            degrees.append(res.anonymity_degree)
            observed_rounds.append(res.observations)
            exposed += int(res.exposed)
        return {
            "coalition_size": float(len(coalition)),
            "pairs_evaluated": float(evaluated),
            "pairs_observed_fraction": evaluated / len(logs) if logs else 0.0,
            "mean_observed_rounds": (
                float(np.mean(observed_rounds)) if observed_rounds else 0.0
            ),
            "mean_anonymity_degree": float(np.mean(degrees)) if degrees else 1.0,
            "exposure_rate": exposed / evaluated if evaluated else 0.0,
        }

    def predecessor_attack_summary(self) -> Dict[str, float]:
        """Run the pooled predecessor attack (malicious coalition) against
        every series; report how often the modal predecessor is the true
        initiator and the attacker's mean confidence."""
        from repro.adversary.traffic_analysis import PredecessorAttack

        coalition = frozenset(self.malicious_node_ids)
        attack = PredecessorAttack(coalition=coalition)
        for log in self.series_logs:
            for path in log.paths:
                attack.ingest_path(path)
        correct = 0
        confidences: List[float] = []
        evaluated = 0
        for log in self.series_logs:
            guess = attack.guess_initiator(log.cid)
            if guess is None:
                continue
            evaluated += 1
            correct += int(guess == log.initiator)
            confidences.append(attack.confidence(log.cid))
        return {
            "series_evaluated": float(evaluated),
            "identification_rate": correct / evaluated if evaluated else 0.0,
            "mean_confidence": float(np.mean(confidences)) if confidences else 0.0,
        }

    def summary(self) -> str:
        lines = [
            f"scenario seed={self.config.seed} strategy={self.config.strategy} "
            f"f={self.config.malicious_fraction} tau={self.config.tau}",
            f"  series: {len(self.series_stats)}  "
            f"rounds: {sum(s.rounds_completed for s in self.series_stats)}  "
            f"failed: {sum(s.failed_rounds for s in self.series_stats)}  "
            f"reformations: {self.total_reformations}",
            f"  avg forwarder set: {self.average_forwarder_set_size():.2f}  "
            f"avg path quality Q(pi): {self.average_path_quality():.3f}",
            f"  avg good-node payoff: {self.average_good_payoff():.1f}",
            f"  sim duration: {self.sim_duration:.0f} min  "
            f"bank audit: {self.bank_audit_ok}",
        ]
        if self.phase_timings:
            lines.append(
                "  wall clock: "
                + "  ".join(
                    f"{phase} {self.phase_timings.get(phase, 0.0):.3f}s"
                    for phase in ("setup", "simulate", "settle", "collect")
                    if phase in self.phase_timings
                )
            )
        if self.perf_counters:
            p = self.perf_counters
            lines.append(
                f"  hot path: {p.get('edges_scored', 0)} edges scored, "
                f"{p.get('selectivity_queries', 0)} selectivity queries, "
                f"{p.get('spne_memo_hits', 0)} SPNE memo hits"
            )
        d = self.degradation
        if d and any(d.values()):
            lines.append(
                f"  chaos: {d.get('hops_lost', 0)} hops lost, "
                f"{d.get('forwarder_crashes', 0)} crashes, "
                f"{d.get('messages_dropped', 0)} msgs dropped, "
                f"{d.get('probe_timeouts', 0)} probe timeouts, "
                f"{d.get('bank_denials', 0)} bank denials"
            )
            lines.append(
                f"  recovery: {d.get('path_retries', 0)} path retries, "
                f"{d.get('probe_retries', 0)} probe retries, "
                f"{d.get('rounds_dropped', 0)} rounds dropped, "
                f"{d.get('deferred_settlements', 0)} settlements deferred "
                f"({d.get('settlements_failed', 0)} failed)"
            )
        return "\n".join(lines)


def run_scenario(config: ExperimentConfig) -> ScenarioResult:
    """Run one full simulation described by ``config``."""
    from repro.sim.monitoring import PERF

    perf_before = PERF.snapshot()
    streams = RandomStreams(config.seed)
    env = Environment()

    # ---- observability (repro.obs) ------------------------------------
    # Disabled (the default): no bus, and every instrumented component
    # keeps its NULL_TRACER default — the run stays bit-identical to an
    # uninstrumented one (nothing here ever touches RandomStreams).
    obs: Optional[Observability] = None
    if config.obs is not None and config.obs.any_enabled():
        obs = Observability.create(clock=lambda: env.now, config=config.obs)
    bus = obs.bus if obs is not None else None
    tracer = obs.tracer if obs is not None else NULL_TRACER
    emit_hops = bus is not None and config.obs.hop_events
    # The phase and settlement spans are the run's only wall clock:
    # ``phase_timings`` is read from them.  Without obs spans they go to
    # a tracer of their own, which no component and no trace sees.
    phase_tracer = tracer if tracer.enabled else SpanTracer()
    # Phase spans bracket regions of this (synchronous) frame, so they
    # are entered/exited manually rather than re-indenting the harness.
    _setup_span = phase_tracer.span("scenario.setup").__enter__()

    overlay = Overlay(rng=streams["overlay"], degree=config.degree)
    overlay.bootstrap(
        config.n_nodes,
        now=env.now,
        malicious_fraction=config.malicious_fraction,
        participation_cost=config.participation_cost,
    )
    if config.topology != "random":
        from repro.network.topology import build_topology, install_topology

        install_topology(
            overlay,
            build_topology(
                config.topology, config.n_nodes, config.degree, streams["topology"]
            ),
        )

    # ---- heterogeneous capacities (repro.network.capacity) ------------
    # None wires nothing (no stream, no cost/bandwidth changes) — the
    # homogeneous run stays bit-identical.
    capacity_profile = None
    if config.capacity is not None:
        from repro.network.capacity import (
            AVAILABILITY_COUPLING,
            COST_COUPLING,
            CapacityProfile,
            apply_participation_costs,
            draw_capacities,
        )

        capacity_profile = CapacityProfile(
            capacities=draw_capacities(
                overlay.nodes.keys(),
                streams["capacity"],
                distribution=config.capacity.distribution,
                spread=config.capacity.spread,
            ),
            availability_coupling=AVAILABILITY_COUPLING,
            cost_coupling=COST_COUPLING,
        )
        apply_participation_costs(
            overlay.nodes, capacity_profile, config.participation_cost
        )

    bandwidth = BandwidthModel(
        rng=streams["bandwidth"],
        node_capacity=(
            capacity_profile.capacities if capacity_profile is not None else None
        ),
    )
    cost_model = CostModel(bandwidth=bandwidth)
    histories = {nid: HistoryProfile(nid) for nid in overlay.nodes}

    # ---- Sybil colony (repro.adversary.sybil) -------------------------
    # The colony joins right after bootstrap; its identities are kept out
    # of the endpoint pool and never churn (active Sybils stay online).
    colony = None
    if config.sybil is not None:
        from repro.adversary.sybil import SybilColony

        colony = SybilColony(
            overlay=overlay,
            histories=histories,
            join_subsidy=config.sybil.join_subsidy,
            participation_cost=config.participation_cost,
        )
        colony.spawn_cohort(config.sybil.n_sybil, env.now)
        if config.sybil.strategy_mode == "whitewash":
            whitewash_gap = config.sybil.whitewash_every

            def _whitewash_process():
                while True:
                    yield env.timeout(whitewash_gap)
                    colony.whitewash(env.now)

            env.process(_whitewash_process())

    # ---- fault injection + recovery (repro.sim.faults) ----------------
    # A missing or all-zero plan wires nothing: no injector, no retry
    # layer, no extra RNG stream — bit-identical to a fault-free run.
    fault_plan = config.faults.plan() if config.faults is not None else None
    if fault_plan is not None and config.loss_probability > 0.0:
        # Legacy knob folds into the unified injector when a plan is active.
        fault_plan = fault_plan.with_hop_loss(
            max(fault_plan.hop_loss, config.loss_probability)
        )
    injector: Optional[FaultInjector] = None
    retry_policy: Optional[RetryPolicy] = None
    retry_rng = None
    if fault_plan is not None and not fault_plan.is_zero():
        injector = FaultInjector(
            plan=fault_plan, rng=streams["faults"], clock=lambda: env.now, bus=bus
        )
        retry_policy = config.faults.retry_policy()
        retry_rng = streams["fault-retry"]
        crash_plan = fault_plan

        def _crash_rejoin(node_id: int):
            yield env.timeout(crash_plan.crash_downtime)
            node = overlay.nodes[node_id]
            # The churn lifecycle may have rejoined (or departed) the node
            # meanwhile; only recover a node still crashed-offline.
            if node.state is NodeState.OFFLINE and not overlay.is_online(node_id):
                overlay.join(node_id, env.now)

        def _crash_node(node_id: int) -> None:
            if not overlay.is_online(node_id):
                return
            overlay.leave(node_id, env.now)
            if crash_plan.crash_downtime > 0:
                env.process(_crash_rejoin(node_id))

        injector.on_crash = _crash_node

    # ---- workload: (I, R) pairs -------------------------------------
    pair_rng = streams["pairs"]
    pairs = _select_pairs(
        overlay,
        config.n_pairs,
        pair_rng,
        exclude=colony.member_ids() if colony is not None else frozenset(),
    )

    # ---- churn -------------------------------------------------------
    earnings: Dict[int, float] = {}
    #: Forwarding income accrued per hop (claims not yet settled).  The
    #: incentive->availability coupling keys off accrued + settled income:
    #: a rational peer stays online for income it is *earning*, not only
    #: income already banked.
    accrued: Dict[int, float] = {}

    def incentive_session_scale(node_id: int) -> float:
        """Earnings-coupled availability: earners stay online longer."""
        own = earnings.get(node_id, 0.0) + accrued.get(node_id, 0.0)
        if own <= 0.0:
            return 1.0
        totals = [
            earnings.get(n, 0.0) + accrued.get(n, 0.0)
            for n in set(earnings) | set(accrued)
        ]
        positive = [v for v in totals if v > 0]
        mean = sum(positive) / len(positive)
        ratio = min(own / mean, INCENTIVE_COUPLING_CAP)
        return 1.0 + config.churn.incentive_coupling * ratio

    if config.churn.enabled:
        churn_model = ChurnModel(
            session=Pareto.with_median(config.churn.session_median),
            offtime=Exponential(mean=config.churn.offtime_mean),
            depart_prob=config.churn.depart_prob,
        )
        churn_rng = streams["churn"]
        scale = (
            incentive_session_scale
            if config.churn.incentive_coupling > 0
            else None
        )
        if capacity_profile is not None:
            # Capable nodes sustain longer sessions; composes with the
            # incentive feedback when both are active.
            if scale is None:
                scale = capacity_profile.session_scale
            else:
                from repro.network.capacity import combined_session_scale

                scale = combined_session_scale(capacity_profile.session_scale, scale)
        never_churn: Set[int] = set(colony.member_ids()) if colony is not None else set()
        for nid in overlay.online_ids():
            if nid in never_churn:
                continue
            env.process(
                node_lifecycle(
                    env,
                    overlay,
                    nid,
                    churn_model,
                    churn_rng,
                    session_scale=scale,
                    bus=bus,
                )
            )

    discovery = None
    on_period = None
    if config.discovery == "gossip":
        from repro.network.gossip import GossipMembership

        gossip = GossipMembership(overlay=overlay, rng=streams["gossip"])
        gossip.bootstrap_from_neighbors()
        discovery = gossip.discover
        on_period = gossip.run_round
    prober = ActiveProber(
        overlay=overlay,
        period=PROBE_PERIOD,
        rng=streams["probe"],
        discovery=discovery,
        on_period=on_period,
        fault_injector=injector,
        retry=retry_policy,
        bus=bus,
        tracer=tracer,
    )
    env.process(prober.run(env))

    # ---- cost accounting ---------------------------------------------
    transmission_costs: Dict[int, float] = {}
    participated: Set[int] = set()

    contracts_by_cid: Dict[int, Contract] = {}

    def on_hop(event: HopEvent) -> None:
        c = cost_model.transmission_cost(
            event.sender, event.receiver, PAYLOAD_SIZE
        )
        transmission_costs[event.sender] = (
            transmission_costs.get(event.sender, 0.0) + c
        )
        participated.add(event.sender)
        # Wire cids under rotation are series_cid * 2**20 + epoch.
        contract = contracts_by_cid.get(event.cid) or contracts_by_cid.get(
            event.cid // 2**20
        )
        if contract is not None:
            accrued[event.sender] = (
                accrued.get(event.sender, 0.0) + contract.forwarding_benefit
            )
        if emit_hops:
            bus.emit(
                "hop.forward",
                cid=event.cid,
                round_index=event.round_index,
                node=event.sender,
                receiver=event.receiver,
            )

    # ---- path building --------------------------------------------------
    if config.termination == "crowds":
        termination = TerminationPolicy.crowds(config.forward_probability)
    else:
        termination = TerminationPolicy.hop_ttl(HOP_TTL)
    strategy_kwargs = {"lookahead": config.lookahead} if config.strategy == "utility-II" else {}
    guard_registry = None
    if config.use_guards:
        from repro.core.defenses import GuardRegistry

        guard_registry = GuardRegistry(overlay=overlay, rng=streams["guards"])
    if config.adversary_mode == "mimic":
        adversary_strategy = strategy_by_name(config.strategy, **strategy_kwargs)
    else:
        adversary_strategy = RandomRouting()
    builder = PathBuilder(
        overlay=overlay,
        cost_model=cost_model,
        histories=histories,
        rng=streams["routing"],
        good_strategy=strategy_by_name(config.strategy, **strategy_kwargs),
        adversary_strategy=adversary_strategy,
        termination=termination,
        weights=config.weights,
        max_attempts=config.max_attempts,
        loss_probability=config.loss_probability,
        fault_injector=injector,
        guard_registry=guard_registry,
        hop_listener=on_hop,
        bus=bus,
        tracer=tracer,
        backend=config.backend,
        position_aware=config.position_aware,
    )

    # ---- bank -------------------------------------------------------------
    bank: Optional[Bank] = None
    if config.use_bank:
        bank = Bank(
            rng=streams["bank"],
            denominations=tuple(2**k for k in range(17)),
            bus=bus,
        )
        if injector is not None:
            bank.availability = injector.bank_available
        for nid in overlay.nodes:
            bank.open_account(nid, endowment=0.0)
        if colony is not None:
            # Founding identities opened before the bank existed; credit
            # their join subsidies now.  Later whitewash spawns mint
            # through the colony itself.
            colony.bank = bank
            if config.sybil.join_subsidy > 0:
                for nid in colony.all_ids:
                    bank.ledger.mint(nid, config.sybil.join_subsidy)
        # Initiators carry the working capital: at least the worst-case
        # series outlay (every round at the maximum path length and P_f),
        # so no workload configuration can bounce a settlement.  Dynamic
        # pricing can clear above pf_range, so cap at the price ceiling.
        pf_cap = config.pf_range[1]
        if config.pricing is not None:
            from repro.gametheory.stackelberg import PRICE_CEILING

            pf_cap = max(pf_cap, PRICE_CEILING)
        worst_case_series = (
            config.rounds_per_pair
            * MAX_PATH_LENGTH
            * pf_cap
            * 1.1
            + config.tau * pf_cap
        )
        per_pair = max(ENDOWMENT / max(1, len(pairs)), worst_case_series)
        for i, _r in pairs:
            bank.ledger.mint(i, per_pair)

    # ---- sharded engine -------------------------------------------------
    # Swap the builder's lazily-created world/planner for the shared-
    # memory pair *before* the first decision touches them; everything
    # downstream (ledger balances, the event loop's interrupt poll) then
    # routes through the engine.
    # Decisions stay bit-identical to the single-process numpy path for
    # any shard count.
    shard_engine = None
    if config.shard is not None:
        from repro.sim.shard import ShardEngine

        if builder.backend != "numpy":
            raise ValueError(
                f"sharded runs require the numpy backend, "
                f"got {builder.backend!r}"
            )
        shard_engine = ShardEngine(
            overlay,
            config.shard.n_shards,
            config.seed,
            slack=config.shard.slack,
            max_levels=max(config.lookahead, 1),
        )
        shard_engine.start()
        builder._world = shard_engine.world
        builder._planner = shard_engine.planner
        if bank is not None:
            shard_engine.bind_ledger(bank.ledger)
        env.interrupt_check = shard_engine.poll_interrupt

    # ---- run the pairs as processes ------------------------------------
    all_series: List[ConnectionSeries] = []
    pairs_done: List[int] = []
    series_settlements: Dict[int, Dict[int, float]] = {}
    contract_rng = streams["contracts"]
    round_rng = streams["rounds"]
    rounds = config.rounds_per_pair

    round_times: Dict[int, List[float]] = {}
    round_latencies: List[Tuple[float, float]] = []
    transport = None
    if config.temporal_forwarding:
        from repro.network.transport import (
            TEMPORAL_PROCESSING_DELAY,
            TEMPORAL_PROPAGATION_DELAY,
            TransportNetwork,
        )

        transport = TransportNetwork(
            env=env,
            bandwidth=bandwidth,
            propagation_delay=TEMPORAL_PROPAGATION_DELAY,
            processing_delay=TEMPORAL_PROCESSING_DELAY,
            fault_injector=injector,
        )
    validation_counts = {"ok": 0, "bad": 0}
    ephemeral_keys: Dict[int, object] = {}
    if config.validate_routes:
        from repro.payment.crypto import RSAKeyPair

        # One ephemeral key pair per series (fresh keys are what keep the
        # confirmation unlinkable to the initiator's identity).
        for cid in range(1, len(pairs) + 1):
            ephemeral_keys[cid] = RSAKeyPair.generate(
                streams["ephemeral"], bits=DEFAULT_KEY_BITS
            )

    def _validate_route(path) -> None:
        from repro.core.secure_path import confirm_and_validate_path

        if len(set(path.forwarders)) != len(path.forwarders):
            # The chain validator is conservative about repeat forwarders
            # (duplicate node records); such paths fall back to the
            # plaintext path info and are not counted either way.
            return
        outcome = confirm_and_validate_path(
            path, ephemeral_keys[path.cid], streams["ephemeral"]
        )
        if outcome.valid:
            validation_counts["ok"] += 1
        else:
            validation_counts["bad"] += 1

    # ---- dynamic pricing (repro.gametheory.stackelberg) ----------------
    # None keeps the paper's exogenous U[pf_range] contract draws.  Both
    # modes are RNG-free: the Stackelberg solve is closed-form over the
    # reserve-price grid, and the market tatonnement is pure state.
    market = None
    stackelberg_eq = None
    pricing_pf: Optional[float] = None
    if config.pricing is not None:
        from repro.gametheory.stackelberg import (
            PRICE_CEILING,
            PRICE_FLOOR,
            FollowerProfile,
            MarketPriceProcess,
            StackelbergPricingGame,
        )
        from repro.network.bandwidth import expected_transmission_cost

        if config.pricing.mode == "stackelberg":
            # Followers are the good nodes; reserve price = Prop 3
            # threshold with the (capacity-adjusted) participation cost
            # and the analytic expected transmission cost.
            expected_ct = expected_transmission_cost(PAYLOAD_SIZE)
            followers = tuple(
                FollowerProfile(
                    node_id=nid,
                    participation_cost=overlay.nodes[nid].participation_cost,
                    transmission_cost=expected_ct,
                )
                for nid in sorted(overlay.nodes)
                if not overlay.nodes[nid].malicious
            )
            stackelberg_eq = StackelbergPricingGame(
                followers=followers,
                value_of_anonymity=config.pricing.value_of_anonymity,
                rounds=rounds,
                avg_path_length=termination.expected_length(),
                tau=config.tau,
                price_floor=PRICE_FLOOR,
                price_ceiling=PRICE_CEILING,
            ).solve()
            pricing_pf = stackelberg_eq.pf
        else:
            market = MarketPriceProcess()

    def pair_process(cid: int, initiator: int, responder: int, contract: Contract):
        if contract is None:
            # Market mode: price the series at the tatonnement's current
            # quote when the series starts.
            contract = Contract.from_tau(market.price, config.tau)
            contracts_by_cid[cid] = contract
        rotator = None
        if config.cid_rotation_epoch > 0:
            from repro.core.defenses import CidRotator

            rotator = CidRotator(series_cid=cid, epoch=config.cid_rotation_epoch)
        series = ConnectionSeries(
            cid=cid,
            initiator=initiator,
            responder=responder,
            contract=contract,
            builder=builder,
            cid_rotator=rotator,
        )
        all_series.append(series)
        # Stagger starts so pairs interleave with churn.
        yield env.timeout(float(round_rng.uniform(0.0, INTER_ROUND_GAP)))
        for _ in range(rounds):
            # The initiator only issues its recurring request while online:
            # wait (bounded) for it to rejoin if churn took it away.
            waited = 0
            while (
                not overlay.is_online(initiator)
                and waited < INITIATOR_WAIT_ROUNDS
            ):
                yield env.timeout(PROBE_PERIOD)
                waited += 1
            round_times.setdefault(cid, []).append(env.now)
            path = series.run_round()
            if path is None and injector is not None and retry_policy is not None:
                # Recovery: back off and retry the failed round against the
                # (possibly recovered) overlay instead of writing it off.
                for attempt in range(retry_policy.max_retries):
                    injector.stats.path_retries += 1
                    yield env.timeout(retry_policy.delay(attempt, retry_rng))
                    path = series.retry_round()
                    if path is not None:
                        break
                if path is None:
                    injector.stats.rounds_abandoned += 1
            if market is not None:
                # Tatonnement input: did this round find a willing path at
                # the going price?  (Pure state update, draws no RNG.)
                market.record(path is not None, env.now)
            if path is not None and config.validate_routes:
                _validate_route(path)
            if path is not None and transport is not None:
                latencies = yield from transport.send_along_path(path)
                if latencies is None:
                    # Injected transport drop: the round's messages died
                    # in flight (the path itself still settles — forwarders
                    # did the work).
                    injector.stats.rounds_dropped += 1
                else:
                    round_latencies.append(latencies)
            gap = INTER_ROUND_GAP * float(0.5 + round_rng.random())
            yield env.timeout(gap)
        yield from _settle_with_retry(series, initiator)
        pairs_done.append(cid)

    def _settle_with_retry(series: ConnectionSeries, initiator: int):
        """Settle, deferring through bank-outage windows with backoff."""
        if injector is None or retry_policy is None:
            _settle(series, initiator)
            return
        attempt = 0
        while True:
            try:
                _settle(series, initiator)
                return
            except BankUnavailable:
                if attempt >= retry_policy.max_retries:
                    # Give up: nobody is paid (the escrow was never opened
                    # — availability is checked before any value moves).
                    injector.stats.settlements_failed += 1
                    series_settlements[series.cid] = {}
                    if bus is not None:
                        bus.emit("settle.fail", cid=series.cid, attempts=attempt)
                    return
                if attempt == 0:
                    injector.stats.deferred_settlements += 1
                injector.stats.settlement_retries += 1
                if bus is not None:
                    bus.emit("settle.defer", cid=series.cid, attempt=attempt)
                yield env.timeout(retry_policy.delay(attempt, retry_rng))
                attempt += 1

    def _settle(series: ConnectionSeries, initiator: int) -> None:
        # One span per attempt; the "settle" phase timing sums them.
        with phase_tracer.span("settle.series"):
            payments = series.settlement()
            series_settlements[series.cid] = dict(payments)
            if not payments:
                if bus is not None:
                    bus.emit("settle.series", cid=series.cid, paid=0.0, n_forwarders=0)
                return
            if bank is not None:
                total = sum(payments.values())
                escrow = SeriesEscrow(
                    bank=bank,
                    escrow_id=series.cid,
                    initiator_account=initiator,
                    budget=total,
                )
                escrow.open()
                validated = series.log.total_instances()
                escrow.settle(payments, validated_instances=validated, rng=streams["bank"])
            for node, amount in payments.items():
                earnings[node] = earnings.get(node, 0.0) + amount
            # Settled claims stop being "accrued": the per-instance part of
            # the payment converts to cash (floor at zero for safety).
            instances = series.log.total_instances()
            pf = series.contract.forwarding_benefit
            for node, m in instances.items():
                if node in accrued:
                    accrued[node] = max(0.0, accrued[node] - m * pf)
            if bus is not None:
                bus.emit(
                    "settle.series",
                    cid=series.cid,
                    paid=sum(payments.values()),
                    n_forwarders=len(payments),
                    banked=bank is not None,
                )

    for cid, (i, r) in enumerate(pairs, start=1):
        if config.pricing is None:
            contract = draw_contract(
                contract_rng, tau=config.tau, pf_range=config.pf_range
            )
        elif pricing_pf is not None:
            contract = Contract.from_tau(pricing_pf, config.tau)
        else:
            contract = None  # market mode: priced lazily in pair_process
        if contract is not None:
            contracts_by_cid[cid] = contract
        env.process(pair_process(cid, i, r, contract))

    _setup_span.__exit__(None, None, None)

    # Run until all workload processes finish (plus prober/churn, which are
    # infinite; stop when every series has attempted all rounds).
    _sim_span = phase_tracer.span("scenario.simulate").__enter__()
    horizon = INTER_ROUND_GAP * (rounds + 2) * 2.0
    try:
        while True:
            env.run(until=env.now + horizon)
            # Every pair process must have finished (not merely attempted
            # all rounds): a deferred settlement may still be backing off
            # through a bank outage after its last round.
            if len(pairs_done) >= len(pairs) and all(
                s.rounds_attempted >= rounds for s in all_series
            ):
                break
    finally:
        # Stop the shard workers on every exit path (including a SIGINT
        # drain): folds their PERF counters into this process's totals
        # and unlinks every shared segment before results aggregate.
        if shard_engine is not None:
            shard_engine.close()
            if injector is not None:
                injector.stats.absorb(shard_engine.worker_degradation)
    _sim_span.__exit__(None, None, None)

    # ---- aggregate -------------------------------------------------------
    _collect_span = phase_tracer.span("scenario.collect").__enter__()
    costs: Dict[int, float] = dict(transmission_costs)
    for nid in participated:
        costs[nid] = costs.get(nid, 0.0) + overlay.nodes[nid].participation_cost
    payoffs: Dict[int, float] = {}
    for nid in set(earnings) | set(costs):
        payoffs[nid] = earnings.get(nid, 0.0) - costs.get(nid, 0.0)

    series_logs = [s.log for s in all_series]
    stats = [ConnectionSeriesStats.from_log(log) for log in series_logs]
    sybil_stats: Dict[str, float] = {}
    if colony is not None:
        colony_income = sum(earnings.get(n, 0.0) for n in sorted(colony.all_ids))
        sybil_stats = {
            "identities_used": float(colony.identities_used),
            "whitewashes": float(colony.whitewashes),
            "subsidy_collected": colony.subsidy_collected,
            "colony_income": colony_income,
            "value_per_identity": (
                (colony_income + colony.subsidy_collected)
                / colony.identities_used
            ),
        }
    _collect_span.__exit__(None, None, None)
    phase_timings = _phase_timings(phase_tracer.spans)

    perf_delta = PERF.delta_since(perf_before)
    degradation = injector.stats.snapshot() if injector is not None else {}
    trace: Optional[RunTrace] = None
    if obs is not None:
        trace = obs.run_trace(
            meta={
                "seed": config.seed,
                "strategy": config.strategy,
                "malicious_fraction": config.malicious_fraction,
                "tau": config.tau,
                "n_nodes": config.n_nodes,
                "n_pairs": config.n_pairs,
                "rounds_per_pair": rounds,
                "sim_duration": env.now,
            }
        )
    registry = _build_run_metrics(
        config=config,
        stats=stats,
        reformations=builder.reformations,
        sim_duration=env.now,
        perf_delta=perf_delta,
        degradation=degradation,
        phase_timings=phase_timings,
        bank=bank,
        trace=trace,
    )
    return ScenarioResult(
        config=config,
        payoffs=payoffs,
        earnings=earnings,
        costs=costs,
        series_stats=stats,
        series_logs=series_logs,
        series_settlements=series_settlements,
        good_node_ids=(
            {n.node_id for n in overlay.good_nodes()}
            - (set(colony.all_ids) if colony is not None else set())
        ),
        malicious_node_ids={n.node_id for n in overlay.malicious_nodes()},
        total_reformations=builder.reformations,
        sim_duration=env.now,
        bank_audit_ok=(bank.audit() if bank is not None else None),
        overlay=overlay,
        round_times=round_times,
        routes_validated=validation_counts["ok"],
        routes_invalid=validation_counts["bad"],
        round_latencies=round_latencies,
        perf_counters=perf_delta,
        degradation=degradation,
        phase_timings=phase_timings,
        trace=trace,
        metrics=registry,
        capacities=(
            dict(capacity_profile.capacities)
            if capacity_profile is not None
            else None
        ),
        pricing_trace=(
            list(market.history)
            if market is not None
            else ([(0.0, pricing_pf)] if pricing_pf is not None else [])
        ),
        stackelberg=stackelberg_eq,
        sybil_ids=set(colony.all_ids) if colony is not None else set(),
        sybil_stats=sybil_stats,
    )


def _phase_timings(spans: List[SpanRecord]) -> Dict[str, float]:
    """Wall seconds per phase, read from the run's spans: each
    ``scenario.<phase>`` span's wall, and for ``settle`` the sum of the
    ``settle.series`` walls (settlement runs inside ``simulate``)."""
    timings = {"setup": 0.0, "simulate": 0.0, "settle": 0.0, "collect": 0.0}
    for span in spans:
        if span.name == "settle.series":
            timings["settle"] += span.wall
        elif span.name.startswith("scenario."):
            timings[span.name[len("scenario."):]] = span.wall
    return timings


def _build_run_metrics(
    *,
    config: ExperimentConfig,
    stats: List[ConnectionSeriesStats],
    reformations: int,
    sim_duration: float,
    perf_delta: Dict[str, int],
    degradation: Dict[str, int],
    phase_timings: Dict[str, float],
    bank: Optional[Bank],
    trace: Optional[RunTrace],
) -> MetricsRegistry:
    """Materialise one run's counters/gauges into a fresh registry.

    Built after the simulation from plain snapshot dicts, so it costs
    nothing on the hot path and the registry holds no callables (it must
    survive pickling across the ``REPRO_JOBS`` process pool).
    """
    registry = MetricsRegistry()
    registry.register_counters(
        "repro_perf", perf_delta, help="Hot-path profiling counters (PERF delta)."
    )
    if degradation:
        registry.register_counters(
            "repro_fault",
            degradation,
            help="Fault-injection and recovery counters (DegradationCounters).",
        )
    g = registry.gauge("repro_scenario", "Scenario-level outcome gauges.")
    g.set(float(sum(s.rounds_completed for s in stats)), stat="rounds_completed")
    g.set(float(sum(s.failed_rounds for s in stats)), stat="rounds_failed")
    g.set(float(reformations), stat="reformations")
    g.set(float(len(stats)), stat="n_series")
    g.set(float(sim_duration), stat="sim_duration_minutes")
    phase = registry.gauge(
        "repro_phase_wall_seconds", "Per-phase wall-clock time for the run."
    )
    for name, seconds in phase_timings.items():
        phase.set(seconds, phase=name)
    if bank is not None:
        registry.register_gauges(
            "repro_bank", bank.stats(), help="Bank operational counters."
        )
    if trace is not None:
        ev = registry.counter(
            "repro_events_total", "Structured trace events by kind."
        )
        for kind, n in sorted(trace.counts_by_kind().items()):
            ev.inc(float(n), kind=kind)
        span_wall = registry.counter(
            "repro_span_wall_seconds_total",
            "Cumulative wall time per span name.",
        )
        span_n = registry.counter("repro_spans_total", "Completed spans per name.")
        for name, summary in sorted(trace.span_summary().items()):
            span_wall.inc(summary["wall"], span=name)
            span_n.inc(float(summary["count"]), span=name)
    return registry


def _select_pairs(
    overlay: Overlay,
    n_pairs: int,
    rng: np.random.Generator,
    exclude: Set[int] = frozenset(),
) -> List[Tuple[int, int]]:
    """Random (initiator, responder) pairs with distinct endpoints.

    Pairs may reuse nodes across pairs (the paper draws 100 pairs from 40
    nodes), but a pair's two endpoints always differ.  ``exclude`` keeps
    designated ids (e.g. Sybil identities) out of the endpoint pool.
    """
    ids = [n for n in overlay.online_ids() if n not in exclude]
    if len(ids) < 2:
        raise ValueError("need at least two online nodes to form pairs")
    pairs: List[Tuple[int, int]] = []
    for _ in range(n_pairs):
        i, r = rng.choice(ids, size=2, replace=False)
        pairs.append((int(i), int(r)))
    return pairs
