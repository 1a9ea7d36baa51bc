"""Dynamic pricing: Stackelberg leader–follower and market-priced ``P_f``.

The paper fixes ``P_f ~ U[50, 100]`` exogenously.  Two economic
extensions from the related literature let us stress-test Propositions
2–3 when the price itself is strategic:

**Stackelberg game** (Kang & Wu).  The initiator moves first and posts a
per-instance price ``P_f``; each candidate forwarder then plays its
Proposition-3 best response — forward iff ``P_f`` clears its private
reserve price ``C_i^p + C_i^t``.  The initiator values the anonymity of
a larger forwarder pool with diminishing returns
(``V * log2(1 + n)``, the entropy of a uniform ``n+1``-member anonymity
set) and pays ``rounds * L * P_f + tau * P_f`` for the series, so the
subgame-perfect price balances anonymity against payment.  With
heterogeneous reserve prices the optimum sits just above some follower's
reserve — the candidate grid in :meth:`StackelbergPricingGame.solve` is
exactly those thresholds (+epsilon), so the solution is exact, not a
discretisation.

**Market pricing** (BitTorrent Anonymity Marketplace).  ``P_f`` floats:
a deterministic tatonnement reacts to the observed fill rate — failed
rounds (no forwarder accepted / path collapsed) push the price up,
successful rounds push it down, clamped to a band.  The process is pure
state (no RNG), so scenarios stay bit-identical across backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: Tie-break / strict-inequality margin above a follower's reserve price.
RESERVE_EPSILON = 1e-9

#: The band a scenario's dynamic pricing keeps ``P_f`` in, in both modes
#: (the Stackelberg solve and the market tatonnement).
PRICE_FLOOR = 1.0
PRICE_CEILING = 500.0


# ------------------------------------------------------------ followers
@dataclass(frozen=True)
class FollowerProfile:
    """One candidate forwarder's private cost type."""

    node_id: int
    participation_cost: float
    transmission_cost: float

    @property
    def reserve_price(self) -> float:
        """Proposition 3 threshold: forward is dominant iff
        ``P_f > C_i^p + C_i^t``."""
        return self.participation_cost + self.transmission_cost

    def accepts(self, pf: float) -> bool:
        """Follower best response to a posted price (strict, per Prop 3)."""
        return pf > self.reserve_price


def follower_best_response(pf: float, followers: Sequence[FollowerProfile]) -> List[int]:
    """Node ids (sorted) of followers whose dominant strategy at ``pf``
    is to forward."""
    return sorted(f.node_id for f in followers if f.accepts(pf))


# ---------------------------------------------------------------- leader
@dataclass(frozen=True)
class StackelbergEquilibrium:
    """Subgame-perfect outcome of the pricing game."""

    pf: float
    #: Followers that accept at ``pf`` (their ids, sorted).
    participants: Tuple[int, ...]
    leader_utility: float
    #: Sum over accepting followers of ``pf - reserve_price``.
    follower_surplus: float
    #: Leader utility at every grid candidate, for inspection/plots.
    candidates: Tuple[Tuple[float, float], ...] = ()

    @property
    def n_participants(self) -> int:
        return len(self.participants)


@dataclass(frozen=True)
class StackelbergPricingGame:
    """Initiator (leader) posts ``P_f``; forwarders (followers) respond.

    Leader utility at price ``p`` with ``n(p)`` accepting followers::

        U_L(p) = value_of_anonymity * log2(1 + n(p)) - (rounds * L + tau) * p

    ``n(p)`` is a step function of the followers' reserve prices, so the
    exact optimum lies on the grid {0} ∪ {reserve + eps}; :meth:`solve`
    evaluates it there and returns the *greatest* maximizer, which makes
    the equilibrium price monotone in ``value_of_anonymity`` (increasing
    differences in ``(p, V)`` — the standard comparative-statics
    argument).
    """

    followers: Tuple[FollowerProfile, ...]
    value_of_anonymity: float
    rounds: int = 1
    avg_path_length: float = 1.0
    tau: float = 2.0
    price_floor: float = 0.0
    price_ceiling: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.avg_path_length <= 0:
            raise ValueError(f"avg_path_length must be > 0, got {self.avg_path_length}")
        if self.value_of_anonymity < 0:
            raise ValueError("value_of_anonymity must be >= 0")
        if self.price_ceiling is not None and self.price_ceiling < self.price_floor:
            raise ValueError("price_ceiling below price_floor")

    @property
    def payment_weight(self) -> float:
        """Total instances paid per unit price: ``rounds * L + tau``."""
        return self.rounds * self.avg_path_length + self.tau

    def leader_utility(self, pf: float) -> float:
        n = sum(1 for f in self.followers if f.accepts(pf))
        return self.value_of_anonymity * math.log2(1 + n) - self.payment_weight * pf

    def price_grid(self) -> List[float]:
        """Candidate prices: the floor plus each reserve price + epsilon
        (deduplicated, clamped to the band, ascending)."""
        grid = {self.price_floor}
        for f in self.followers:
            p = f.reserve_price + RESERVE_EPSILON
            if p < self.price_floor:
                continue
            if self.price_ceiling is not None and p > self.price_ceiling:
                continue
            grid.add(p)
        return sorted(grid)

    def solve(self) -> StackelbergEquilibrium:
        """Exact subgame-perfect equilibrium over the reserve-price grid.

        Ties break toward the *greatest* maximizer so the solution is
        monotone non-decreasing in ``value_of_anonymity``.
        """
        best_pf = self.price_floor
        best_u = self.leader_utility(self.price_floor)
        evaluated: List[Tuple[float, float]] = []
        for p in self.price_grid():
            u = self.leader_utility(p)
            evaluated.append((p, u))
            if u >= best_u - 1e-15:
                if u > best_u + 1e-15 or p > best_pf:
                    best_pf, best_u = p, u
        participants = follower_best_response(best_pf, self.followers)
        surplus = sum(
            best_pf - f.reserve_price
            for f in self.followers
            if f.accepts(best_pf)
        )
        return StackelbergEquilibrium(
            pf=best_pf,
            participants=tuple(participants),
            leader_utility=best_u,
            follower_surplus=surplus,
            candidates=tuple(evaluated),
        )


def uniform_bandwidth_transmission_cost(
    unit_cost: float, reference: float, bw_min: float, bw_max: float
) -> float:
    """Expected per-instance transmission cost when bandwidth is
    ``U[bw_min, bw_max]`` and cost scales as ``unit_cost * reference / bw``
    (the :class:`~repro.network.bandwidth.BandwidthModel` law):
    ``E[ref/bw] = ref * ln(bw_max/bw_min) / (bw_max - bw_min)``.

    Analytic on purpose — deriving follower types from the *distribution*
    leaves the model's per-pair cached draws untouched.
    """
    if bw_min <= 0 or bw_max <= bw_min:
        raise ValueError("need 0 < bw_min < bw_max")
    return unit_cost * reference * math.log(bw_max / bw_min) / (bw_max - bw_min)


# ---------------------------------------------------------------- market
@dataclass
class MarketPriceProcess:
    """Deterministic tatonnement for a floating ``P_f``.

    Keeps a sliding window of round outcomes; after each full window the
    price moves by ``adjust_rate * (failures - successes) / window``
    (relative), clamped to ``[floor, ceiling]``.  Excess demand (failed
    rounds — nobody forwarded at this price) raises the price; excess
    supply lowers it.
    """

    initial_price: float = 75.0
    adjust_rate: float = 0.25
    window: int = 8
    floor: float = PRICE_FLOOR
    ceiling: float = PRICE_CEILING
    price: float = field(init=False)
    adjustments: int = field(init=False, default=0)
    _outcomes: List[bool] = field(init=False, default_factory=list, repr=False)
    #: (time, price) after each adjustment, for reporting.
    history: List[Tuple[float, float]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not (self.floor <= self.initial_price <= self.ceiling):
            raise ValueError(
                f"initial_price {self.initial_price} outside "
                f"[{self.floor}, {self.ceiling}]"
            )
        if self.adjust_rate < 0:
            raise ValueError("adjust_rate must be >= 0")
        self.price = self.initial_price
        self.history.append((0.0, self.price))

    def record(self, success: bool, now: float = 0.0) -> float:
        """Record one round outcome; returns the (possibly updated) price."""
        self._outcomes.append(success)
        if len(self._outcomes) >= self.window:
            failures = sum(1 for ok in self._outcomes if not ok)
            successes = len(self._outcomes) - failures
            pressure = (failures - successes) / len(self._outcomes)
            self.price = min(
                self.ceiling,
                max(self.floor, self.price * (1.0 + self.adjust_rate * pressure)),
            )
            self.adjustments += 1
            self.history.append((now, self.price))
            self._outcomes.clear()
        return self.price


__all__ = [
    "RESERVE_EPSILON",
    "PRICE_FLOOR",
    "PRICE_CEILING",
    "FollowerProfile",
    "follower_best_response",
    "StackelbergEquilibrium",
    "StackelbergPricingGame",
    "uniform_bandwidth_transmission_cost",
    "MarketPriceProcess",
]
