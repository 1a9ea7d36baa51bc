"""Adversarial & economic scenario suite (ROADMAP item).

Four attack/economics families, each a first-class
:class:`~repro.experiments.config.ExperimentConfig` scenario with
invariants that make the suite a correctness harness rather than a demo:

- ``coalition`` — intersection-attack coalitions pooling per-round
  observations (:meth:`ScenarioResult.coalition_intersection`); reports
  anonymity-set degradation vs. forwarder-set size ``||pi||`` — the
  paper's §2.1 security claim, measured outside its parameter regime.
- ``sybil`` — Sybil/whitewashing free-riders attacking the token
  economy (``SybilConfig``); measures extracted value per identity and
  checks that identity churn mints nothing beyond the join subsidy.
- ``pricing`` — dynamic ``P_f``: the initiator/forwarder Stackelberg
  game and the market tatonnement (``PricingConfig``), validating the
  Proposition 2/3 participation thresholds under endogenous prices.
- ``capacity`` — heterogeneous node capacities (``CapacityConfig``)
  feeding availability, participation cost, and link bandwidth.

:func:`run_attack_suite` runs every family at one seed and evaluates
its invariants; :func:`degradation_report` produces the
``||pi||``-vs-anonymity figure as a markdown artifact (the CI
adversarial lane uploads it).  Everything here is seeded and
deterministic; the heavy lifting lives in the scenario engine, so both
backends and the chaos fault model apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.contracts import PAYLOAD_SIZE
from repro.experiments.config import (
    CapacityConfig,
    ExperimentConfig,
    PricingConfig,
    SybilConfig,
)
from repro.experiments.scenario import ScenarioResult, run_scenario
from repro.gametheory.stackelberg import PRICE_CEILING, PRICE_FLOOR, FollowerProfile
from repro.network.bandwidth import expected_transmission_cost

#: The four scenario families of the suite.
FAMILIES = ("coalition", "sybil", "pricing", "capacity")

#: Scaled-down workload for tests/CI; ``paper`` approaches §3 scale.
PRESETS: Dict[str, Dict[str, int]] = {
    "quick": dict(n_nodes=24, n_pairs=8, total_transmissions=96),
    "paper": dict(n_nodes=40, n_pairs=40, total_transmissions=800),
}


def family_config(
    family: str, seed: int = 0, preset: str = "quick", **overrides
) -> ExperimentConfig:
    """The canonical config for one scenario family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {tuple(PRESETS)}")
    base = dict(PRESETS[preset], seed=seed)
    if family == "coalition":
        base.update(malicious_fraction=0.25)
    elif family == "sybil":
        base.update(
            malicious_fraction=0.0,
            sybil=SybilConfig(
                n_sybil=max(2, base["n_nodes"] // 6),
                strategy_mode="whitewash",
                whitewash_every=40.0,
                join_subsidy=25.0,
            ),
        )
    elif family == "pricing":
        base.update(
            malicious_fraction=0.1,
            pricing=PricingConfig(mode="stackelberg", value_of_anonymity=2000.0),
        )
    else:  # capacity
        base.update(
            malicious_fraction=0.1,
            capacity=CapacityConfig(distribution="pareto"),
        )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------- coalition
def _coalition_sizes(pool: Sequence[int]) -> List[int]:
    return sorted({1, max(1, len(pool) // 2), len(pool)}) if pool else []


def coalition_curve(
    result: ScenarioResult, sizes: Optional[Sequence[int]] = None
) -> List[Dict[str, float]]:
    """Degradation vs. coalition size on one finished run.

    Grows the coalition through prefixes of the (sorted) malicious node
    set and reports :meth:`ScenarioResult.coalition_intersection` at each
    size.  Note the *mean* anonymity degree is not monotone in coalition
    size — a larger coalition observes additional series, which enter the
    mean near 1.0; the structural invariant lives in
    :func:`coalition_monotone` instead.
    """
    pool = sorted(result.malicious_node_ids)
    if sizes is None:
        sizes = _coalition_sizes(pool)
    rows = []
    for k in sizes:
        if not 0 < k <= len(pool):
            continue
        rows.append(result.coalition_intersection(members=set(pool[:k])))
    return rows


def coalition_monotone(
    result: ScenarioResult, sizes: Optional[Sequence[int]] = None
) -> bool:
    """The structural monotonicity invariant: growing the coalition never
    *grows* any series' candidate set.

    A coalition prefix of size ``k+1`` pools a superset of the size-``k``
    prefix's observation times and excludes at least as many nodes, so for
    every series both observe, the larger coalition's final candidate set
    must be a subset of the smaller's.  (The per-run *mean* degree is not
    monotone — larger coalitions also observe extra, well-anonymised
    series — which is exactly why the invariant is stated per series.)
    """
    pool = sorted(result.malicious_node_ids)
    if sizes is None:
        sizes = _coalition_sizes(pool)
    prev: Dict[int, frozenset] = {}
    prev_observed: set = set()
    for k in sizes:
        if not 0 < k <= len(pool):
            continue
        per_series = result.coalition_results(members=set(pool[:k]))
        observed = {cid for cid, res in per_series.items() if res is not None}
        # A larger coalition sees everything the smaller one saw.
        if not prev_observed <= observed:
            return False
        for cid, res in per_series.items():
            if res is None:
                continue
            if cid in prev and not res.final_candidates <= prev[cid]:
                return False
            prev[cid] = res.final_candidates
        prev_observed = observed
    return True


# ---------------------------------------------------------------- checks
@dataclass(frozen=True)
class FamilyOutcome:
    """One family's run summary plus its invariant verdicts."""

    family: str
    config: ExperimentConfig
    metrics: Dict[str, float]
    #: invariant name -> passed.
    invariants: Dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.invariants.values())


def run_family(
    family: str, seed: int = 0, preset: str = "quick", **overrides
) -> FamilyOutcome:
    """Run one family and evaluate its invariants."""
    config = family_config(family, seed=seed, preset=preset, **overrides)
    result = run_scenario(config)
    invariants: Dict[str, bool] = {}
    metrics: Dict[str, float] = {
        "avg_forwarder_set": result.average_forwarder_set_size(),
        "rounds_completed": float(
            sum(s.rounds_completed for s in result.series_stats)
        ),
    }
    if result.bank_audit_ok is not None:
        invariants["token_conservation"] = bool(result.bank_audit_ok)

    if family == "coalition":
        full = result.coalition_intersection()
        metrics.update(full)
        invariants["anonymity_monotone_in_coalition"] = coalition_monotone(result)
        invariants["degree_in_unit_interval"] = (
            0.0 <= full["mean_anonymity_degree"] <= 1.0
        )
    elif family == "sybil":
        s = result.sybil_stats
        metrics.update(s)
        # Whitewashing yields nothing beyond the subsidy: every token of
        # colony income must be explained by settled forwarding work in
        # the per-series settlement records — identity churn mints
        # nothing.  (Cross-checks two independent accounting paths.)
        settled_to_colony = sum(
            amount
            for settlement in result.series_settlements.values()
            for node, amount in settlement.items()
            if node in result.sybil_ids
        )
        invariants["no_gain_beyond_subsidy"] = (
            abs(settled_to_colony - s["colony_income"]) < 1e-6
        )
        invariants["subsidy_accounting"] = (
            abs(
                s["subsidy_collected"]
                - s["identities_used"] * config.sybil.join_subsidy
            )
            < 1e-9
        )
        invariants["identities_grow_with_whitewash"] = (
            s["identities_used"] == config.sybil.n_sybil + s["whitewashes"]
        )
    elif family == "pricing":
        eq = result.stackelberg
        metrics.update(
            pf=result.pricing_trace[-1][1],
            n_participants=float(eq.n_participants if eq else 0),
        )
        if eq is not None:
            invariants["followers_clear_reserve"] = all(
                f.reserve_price < eq.pf
                for f in _equilibrium_followers(result)
                if f.node_id in eq.participants
            )
            invariants["follower_surplus_nonnegative"] = eq.follower_surplus >= 0
        invariants["price_in_band"] = all(
            PRICE_FLOOR <= p <= PRICE_CEILING for _, p in result.pricing_trace
        )
    else:  # capacity
        caps = result.capacities or {}
        metrics.update(
            mean_capacity=float(np.mean(list(caps.values()))) if caps else 1.0,
            max_capacity=max(caps.values()) if caps else 1.0,
        )
        invariants["capacities_normalised"] = (
            abs(metrics["mean_capacity"] - 1.0) < 1e-9
        )
        invariants["capacities_positive"] = all(c > 0 for c in caps.values())
    return FamilyOutcome(
        family=family, config=config, metrics=metrics, invariants=invariants
    )


def _equilibrium_followers(result: ScenarioResult):
    ct = expected_transmission_cost(PAYLOAD_SIZE)
    for nid in sorted(result.good_node_ids | result.malicious_node_ids):
        node = result.overlay.nodes[nid]
        if not node.malicious:
            yield FollowerProfile(nid, node.participation_cost, ct)


# ----------------------------------------------------------------- suite
@dataclass
class AttackSuiteResult:
    """Every family at one seed, with invariant verdicts."""

    seed: int
    preset: str
    outcomes: List[FamilyOutcome] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def to_markdown(self) -> str:
        lines = [
            "# Adversarial & economic scenario suite",
            "",
            f"seed {self.seed}, preset `{self.preset}`",
            "",
            "| family | invariants | status | key metrics |",
            "|---|---|---|---|",
        ]
        for o in self.outcomes:
            inv = ", ".join(
                f"{name} {'ok' if ok else 'FAIL'}"
                for name, ok in sorted(o.invariants.items())
            )
            keys = ", ".join(
                f"{k}={v:.3g}" for k, v in sorted(o.metrics.items())
            )
            status = "pass" if o.passed else "**FAIL**"
            lines.append(f"| {o.family} | {inv} | {status} | {keys} |")
        return "\n".join(lines) + "\n"


def run_attack_suite(
    seed: int = 0,
    preset: str = "quick",
    families: Sequence[str] = FAMILIES,
    progress: Optional[Callable[[str], None]] = None,
) -> AttackSuiteResult:
    """Run the whole suite at one seed."""
    suite = AttackSuiteResult(seed=seed, preset=preset)
    for family in families:
        if progress is not None:
            progress(f"[attack] running {family} family (seed {seed})")
        suite.outcomes.append(run_family(family, seed=seed, preset=preset))
    return suite


# ------------------------------------------------- degradation vs ||pi||
@dataclass
class DegradationReport:
    """Measured anonymity degradation vs. forwarder-set size ``||pi||``.

    One row per malicious fraction: growing the adversary fraction
    inflates ``||pi||`` (random routing spreads paths wider) *and* grows
    the observing coalition — the paper's claim is that anonymity decays
    gracefully, not catastrophically, as both rise.
    """

    seed: int
    preset: str
    #: (fraction, avg ||pi||, coalition stats) per run.
    rows: List[Tuple[float, float, Dict[str, float]]] = field(default_factory=list)
    #: Within-run coalition-size curve at the largest fraction.
    curve: List[Dict[str, float]] = field(default_factory=list)

    @property
    def claim_holds(self) -> bool:
        """Graceful degradation: every evaluated point keeps a nonzero
        anonymity degree and full exposure never occurs."""
        return all(
            stats["mean_anonymity_degree"] > 0.0 and stats["exposure_rate"] < 1.0
            for _, _, stats in self.rows
            if stats["pairs_evaluated"] > 0
        )

    def to_markdown(self) -> str:
        lines = [
            "# Anonymity degradation vs. forwarder-set size",
            "",
            f"seed {self.seed}, preset `{self.preset}` — pooled coalition "
            "intersection attack (all malicious nodes collude).",
            "",
            "| f | avg \\|\\|pi\\|\\| | observed pairs | mean rounds seen "
            "| anonymity degree | exposure rate |",
            "|---|---|---|---|---|---|",
        ]
        for fraction, pi, stats in self.rows:
            lines.append(
                f"| {fraction:.2f} | {pi:.2f} "
                f"| {stats['pairs_observed_fraction']:.2f} "
                f"| {stats['mean_observed_rounds']:.1f} "
                f"| {stats['mean_anonymity_degree']:.3f} "
                f"| {stats['exposure_rate']:.2f} |"
            )
        lines += [
            "",
            "## Coalition-size curve (largest fraction)",
            "",
            "| coalition size | anonymity degree | exposure rate |",
            "|---|---|---|",
        ]
        for row in self.curve:
            lines.append(
                f"| {int(row['coalition_size'])} "
                f"| {row['mean_anonymity_degree']:.3f} "
                f"| {row['exposure_rate']:.2f} |"
            )
        lines += [
            "",
            f"graceful-degradation claim holds: **{self.claim_holds}**",
        ]
        return "\n".join(lines) + "\n"


def degradation_report(
    seed: int = 0,
    preset: str = "quick",
    fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
    progress: Optional[Callable[[str], None]] = None,
) -> DegradationReport:
    """Sweep the malicious fraction and measure pooled-coalition
    degradation against ``||pi||``."""
    report = DegradationReport(seed=seed, preset=preset)
    last_result: Optional[ScenarioResult] = None
    for fraction in fractions:
        if progress is not None:
            progress(f"[attack] degradation sweep f={fraction} (seed {seed})")
        config = family_config(
            "coalition", seed=seed, preset=preset, malicious_fraction=fraction
        )
        result = run_scenario(config)
        report.rows.append(
            (
                fraction,
                result.average_forwarder_set_size(),
                result.coalition_intersection(),
            )
        )
        last_result = result
    if last_result is not None:
        report.curve = coalition_curve(last_result)
    return report


__all__ = [
    "FAMILIES",
    "PRESETS",
    "AttackSuiteResult",
    "DegradationReport",
    "FamilyOutcome",
    "coalition_curve",
    "coalition_monotone",
    "degradation_report",
    "family_config",
    "run_attack_suite",
    "run_family",
]
