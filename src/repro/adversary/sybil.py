"""Sybil and whitewashing attacks against the incentive mechanism.

A rational attacker might multiply identities to capture more
forwarding income (each identity can be selected independently, each
earning ``P_f`` per instance plus a share of ``P_r``).  Two structural
properties of the paper's design limit the payoff:

1. **availability must be earned**: the §2.3 estimator starts a new
   neighbour at ``rand(0, T)`` observed session time, so fresh Sybil
   identities have near-zero availability and utility routing rarely
   selects them until they have *actually stayed online* — the cost the
   attacker wanted to avoid paying per identity;
2. **the routing benefit is a fixed pot**: extra identities on a series
   inflate ``||pi||`` and dilute the per-member share, including the
   attacker's own.

Two attack strategies are modelled:

- ``"persist"`` — the classic Sybil colony: identities join once and
  stay online forever, farming availability.
- ``"whitewash"`` — identity churn: the colony periodically retires its
  oldest identity and joins a fresh one, shedding any history (and, in
  systems that grant newcomers a starting balance, collecting the *join
  subsidy* each time).  Because every token beyond the subsidy must be
  earned through settled forwarding work, whitewashing yields no net
  token gain beyond the subsidy — the invariant the property suite
  pins (:mod:`tests.properties.test_attack_invariants`).

:class:`SybilColony` owns the identity lifecycle (spawn / whitewash /
retire with per-identity accounting); :func:`run_sybil_experiment`
measures the colony's income against its pro-rata population share under
a chosen routing strategy, with the Sybils joining *after* the honest
population has probe history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.contracts import Contract, draw_contract
from repro.core.costs import CostModel
from repro.core.history import HistoryProfile
from repro.core.protocol import ConnectionSeries, PathBuilder, TerminationPolicy
from repro.core.routing import strategy_by_name
from repro.network.overlay import Overlay
from repro.network.probing import PROBE_PERIOD, run_probe_round
from repro.sim.rng import RandomStreams

#: Supported colony strategies.
SYBIL_STRATEGIES = ("persist", "whitewash")


@dataclass
class SybilColony:
    """Identity lifecycle of a Sybil colony.

    The colony holds a rolling set of *active* identities.  ``spawn``
    creates one (overlay node + history profile + optional bank account
    seeded with the join subsidy); ``whitewash`` retires the oldest
    active identity for good and replaces it with a fresh one.  Every
    identity ever used stays in ``all_ids``/``generations`` so the
    per-identity value extraction can be measured after settlement.
    """

    overlay: Overlay
    histories: Dict[int, HistoryProfile]
    bank: Optional[object] = None  # repro.payment.bank.Bank, kept untyped (lazy layer)
    join_subsidy: float = 0.0
    malicious: bool = False
    participation_cost: float = 1.0
    active: List[int] = field(default_factory=list)
    all_ids: List[int] = field(default_factory=list)
    #: identity -> whitewash generation (0 = founding cohort).
    generations: Dict[int, int] = field(default_factory=dict)
    subsidy_collected: float = 0.0
    whitewashes: int = 0

    def __post_init__(self) -> None:
        if self.join_subsidy < 0:
            raise ValueError(f"negative join_subsidy {self.join_subsidy}")

    @property
    def identities_used(self) -> int:
        """Total identities the colony ever burned through."""
        return len(self.all_ids)

    def member_ids(self) -> Set[int]:
        """Every identity ever controlled by the colony."""
        return set(self.all_ids)

    def spawn(self, now: float, generation: int = 0) -> int:
        """Join one fresh identity; returns its node id."""
        node = self.overlay.spawn_node(
            malicious=self.malicious, participation_cost=self.participation_cost
        )
        nid = node.node_id
        self.overlay.join(nid, now)
        self.histories[nid] = HistoryProfile(nid)
        self.active.append(nid)
        self.all_ids.append(nid)
        self.generations[nid] = generation
        if self.bank is not None:
            self.bank.open_account(nid)
            if self.join_subsidy > 0:
                self.bank.ledger.mint(nid, self.join_subsidy)
        self.subsidy_collected += self.join_subsidy
        return nid

    def spawn_cohort(self, count: int, now: float) -> List[int]:
        """Join ``count`` founding identities at once."""
        if count < 1:
            raise ValueError(f"need at least one identity, got {count}")
        return [self.spawn(now, generation=0) for _ in range(count)]

    def retire(self, nid: int, now: float) -> None:
        """Permanently depart one active identity (whitewash discard)."""
        if nid not in self.active:
            raise ValueError(f"{nid} is not an active colony identity")
        self.active.remove(nid)
        node = self.overlay.nodes[nid]
        from repro.network.node import NodeState

        if node.state is not NodeState.DEPARTED:
            self.overlay.depart(nid, now)

    def whitewash(self, now: float) -> Tuple[int, int]:
        """Retire the oldest active identity, join a fresh one.

        Returns ``(retired_id, fresh_id)``.  The fresh identity starts a
        new whitewash generation and collects the join subsidy (if any)
        — the only token gain the manoeuvre can ever produce.
        """
        if not self.active:
            raise ValueError("colony has no active identity to whitewash")
        retired = self.active[0]
        self.retire(retired, now)
        self.whitewashes += 1
        fresh = self.spawn(now, generation=self.whitewashes)
        return retired, fresh


@dataclass(frozen=True)
class SybilResult:
    """Outcome of one Sybil experiment."""

    n_honest: int
    n_sybil: int
    colony_income: float
    honest_income: float
    #: colony income / (income a same-sized honest group would earn
    #: pro-rata).
    amplification: float
    #: Colony strategy that produced this result.
    strategy_mode: str = "persist"
    #: Total identities the colony burned through (== n_sybil unless
    #: whitewashing rotated some).
    identities_used: int = 0
    #: Settlement income per colony identity (identity id -> amount).
    income_by_identity: Dict[int, float] = field(default_factory=dict)
    #: Join subsidies collected across all identities.
    subsidy_collected: float = 0.0
    join_subsidy: float = 0.0
    #: Ledger conservation check (None when the experiment ran bankless).
    bank_audit_ok: Optional[bool] = None
    #: What the initiators paid out in settlements, total.
    initiator_spend: float = 0.0

    @property
    def profitable(self) -> bool:
        """Did identity multiplication beat pro-rata participation?"""
        return self.amplification > 1.0

    @property
    def value_per_identity(self) -> float:
        """Extracted value (income + subsidies) per identity used."""
        if self.identities_used <= 0:
            return 0.0
        return (self.colony_income + self.subsidy_collected) / self.identities_used

    @property
    def net_gain_beyond_subsidy(self) -> float:
        """Colony token gain not explained by join subsidies.  Every unit
        of this was earned through settled forwarding work — identity
        churn itself mints nothing."""
        return self.colony_income


def run_sybil_experiment(
    n_honest: int = 24,
    n_sybil: int = 8,
    strategy: str = "utility-I",
    seed: int = 0,
    n_pairs: int = 10,
    rounds: int = 15,
    warmup_probes: int = 6,
    probe_period: float = PROBE_PERIOD,
    flap_probability: float = 0.15,
    strategy_mode: str = "persist",
    whitewash_every: int = 5,
    join_subsidy: float = 0.0,
    use_bank: bool = False,
) -> SybilResult:
    """Run the workload with a late-joining Sybil colony; measure income.

    The honest overlay bootstraps and accumulates ``warmup_probes``
    probing rounds (so honest availabilities are established); then the
    colony joins.  Between workload rounds honest non-endpoint nodes
    *flap* (go offline/return with probability ``flap_probability``) —
    the churn that frees neighbour slots Sybils can be discovered into.
    Active Sybil identities never flap: staying online is their whole
    strategy.

    ``strategy_mode="whitewash"`` rotates the oldest identity every
    ``whitewash_every`` workload rounds (a fresh identity replaces it and
    collects ``join_subsidy``).  ``use_bank=True`` settles every series
    through the bank escrow and audits the ledger afterwards, making the
    token-conservation invariant checkable under any colony strategy.
    """
    if n_sybil < 1 or n_honest < 4:
        raise ValueError("need n_sybil >= 1 and n_honest >= 4")
    if strategy_mode not in SYBIL_STRATEGIES:
        raise ValueError(
            f"unknown strategy_mode {strategy_mode!r}; expected one of {SYBIL_STRATEGIES}"
        )
    if whitewash_every < 1:
        raise ValueError(f"whitewash_every must be >= 1, got {whitewash_every}")
    streams = RandomStreams(seed)
    overlay = Overlay(rng=streams["overlay"], degree=5)
    overlay.bootstrap(n_honest)

    # Honest warm-up: probes establish availability before Sybils exist.
    now = 0.0
    for _ in range(warmup_probes):
        now += probe_period
        for nid in overlay.online_ids():
            run_probe_round(overlay, nid, probe_period, streams["probe"], now)

    bank = None
    if use_bank:
        from repro.payment.bank import Bank

        bank = Bank(
            rng=streams["bank"],
            denominations=tuple(2**k for k in range(17)),
            key_bits=128,
        )
        for nid in sorted(overlay.nodes):
            bank.open_account(nid)

    histories = {nid: HistoryProfile(nid) for nid in overlay.nodes}
    colony = SybilColony(
        overlay=overlay,
        histories=histories,
        bank=bank,
        join_subsidy=join_subsidy,
    )
    colony.spawn_cohort(n_sybil, now)
    builder = PathBuilder(
        overlay=overlay,
        cost_model=CostModel(),
        histories=histories,
        rng=streams["routing"],
        good_strategy=strategy_by_name(strategy),
        termination=TerminationPolicy.crowds(0.7),
    )
    income: Dict[int, float] = {}
    pair_rng = streams["pairs"]
    churn_rng = streams["flap"]
    founding = colony.member_ids()
    honest_pool = [n for n in overlay.online_ids() if n not in founding]
    all_series = []
    endpoints: Set[int] = set()
    for cid in range(1, n_pairs + 1):
        i, r = pair_rng.choice(honest_pool, size=2, replace=False)
        endpoints.update((int(i), int(r)))
        all_series.append(
            ConnectionSeries(
                cid=cid,
                initiator=int(i),
                responder=int(r),
                contract=draw_contract(streams["contracts"], tau=2.0),
                builder=builder,
            )
        )
    if bank is not None:
        # Initiators carry enough working capital that no settlement can
        # bounce (worst case: every round at the builder's path cap).
        worst_case = (
            rounds * builder.max_path_length * max(s.contract.forwarding_benefit for s in all_series) * 1.1
            + max(s.contract.routing_benefit for s in all_series)
        )
        for nid in sorted(endpoints):
            bank.ledger.mint(nid, worst_case)
    flappable = [n for n in honest_pool if n not in endpoints and n not in founding]
    offline: Set[int] = set()
    for round_no in range(1, rounds + 1):
        # Honest churn: some nodes flap; active Sybils never do.
        for nid in list(flappable):
            if nid in offline:
                overlay.join(nid, now)
                offline.discard(nid)
            elif churn_rng.random() < flap_probability:
                overlay.leave(nid, now)
                offline.add(nid)
        now += probe_period
        for nid in overlay.online_ids():
            run_probe_round(overlay, nid, probe_period, streams["probe"], now)
        for series in all_series:
            series.run_round()
        if strategy_mode == "whitewash" and round_no % whitewash_every == 0:
            colony.whitewash(now)
    for series in all_series:
        payments = series.settlement()
        if bank is not None and payments:
            from repro.payment.escrow import SeriesEscrow

            escrow = SeriesEscrow(
                bank=bank,
                escrow_id=series.cid,
                initiator_account=series.initiator,
                budget=sum(payments.values()),
            )
            escrow.open()
            escrow.settle(
                payments,
                validated_instances=series.log.total_instances(),
                rng=streams["bank"],
            )
        for node, amount in payments.items():
            income[node] = income.get(node, 0.0) + amount

    members = colony.member_ids()
    colony_income = sum(income.get(n, 0.0) for n in sorted(members))
    honest = sum(
        amount for node, amount in income.items() if node not in members
    )
    total = colony_income + honest
    population = n_honest + n_sybil
    pro_rata = total * n_sybil / population
    return SybilResult(
        n_honest=n_honest,
        n_sybil=n_sybil,
        colony_income=colony_income,
        honest_income=honest,
        amplification=colony_income / pro_rata if pro_rata > 0 else 0.0,
        strategy_mode=strategy_mode,
        identities_used=colony.identities_used,
        income_by_identity={
            nid: income.get(nid, 0.0) for nid in sorted(members)
        },
        subsidy_collected=colony.subsidy_collected,
        join_subsidy=join_subsidy,
        bank_audit_ok=(bank.audit() if bank is not None else None),
        initiator_spend=sum(income.values()),
    )
