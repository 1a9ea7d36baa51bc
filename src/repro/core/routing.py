"""Routing strategies: how a forwarder picks the next hop (§2.4).

Three strategies from the paper:

- :class:`RandomRouting` — uniform choice among live neighbours.  This is
  both the baseline and the adversary model ("we model an adversary's
  routing strategy as random routing").
- :class:`UtilityModelI` — greedy edge-local utility (eq. 1): evaluate
  ``U_i(j) = P_f + q(i,j) P_r - C`` for every live neighbour, pick the
  maximiser, break ties towards higher edge quality.  ``NULL`` (decline to
  participate) when the best utility is negative.
- :class:`UtilityModelII` — path-global utility (§2.4.3): score each
  neighbour by the quality of the best remaining path to the responder,
  computed by backward induction over a bounded-depth game tree.  The
  induction assumes downstream nodes also play their equilibrium
  (quality-maximising) strategy — the SPNE logic of the L-stage game.

Strategies never select the node itself (the strategy space is
``SS_i = V \\ {i} + NULL``) and avoid the immediate predecessor when an
alternative exists (a 2-cycle adds cost without progress).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.edge_quality import QualityWeights, edge_quality
from repro.core.history import HistoryProfile
from repro.core.kernels import (
    MODEL1_KERNEL_MIN_CANDIDATES,
    BatchPlanner,
    WorldArrays,
    validate_backend,
)
from repro.core.utility import (
    argmax_with_quality_tiebreak,
    forwarder_utility_model1,
    forwarder_utility_model2,
)
from repro.network.node import PeerNode
from repro.network.overlay import Overlay
from repro.sim.monitoring import PERF


def _null_tracer() -> object:
    # Deferred: core stays loadable without the obs layer (ARCH001).  The
    # shared NULL_TRACER singleton is returned, so identity semantics are
    # unchanged from the old module-scope default.
    from repro.obs.tracing import NULL_TRACER

    return NULL_TRACER


@dataclass
class ForwardingContext:
    """Everything a routing decision may consult.

    The context is built once per connection round by the protocol layer
    and threaded through each hop's decision.

    **One freshness rule.**  Every decision reads the live world: edge
    quality and candidate sets are computed from the overlay and the
    histories as they stand when the decision is made, with no snapshot
    carried across decisions.  Retries back off in simulated time inside
    one round, and churn, crash-rejoin and probe credits move the world
    meanwhile — both backends see those moves at the same decision.
    """

    cid: int
    round_index: int
    contract: Contract
    responder: int
    overlay: Overlay
    cost_model: CostModel
    histories: Mapping[int, HistoryProfile]
    rng: np.random.Generator
    weights: QualityWeights = field(default_factory=QualityWeights)
    #: When True, selectivity only counts history entries with a matching
    #: predecessor (the §2.3 position-differentiation refinement).  Off by
    #: default: under churn the upstream prefix varies between rounds, and
    #: conditioning on it discards most reuse signal.
    position_aware_selectivity: bool = False
    #: Span tracer for decision-level timing (``spne.decide``).  Defaults
    #: to the shared no-op tracer, so uninstrumented constructors and the
    #: routing hot path pay only a no-op ``with`` block.
    tracer: object = field(default_factory=_null_tracer, repr=False)
    #: Scoring backend: ``"python"`` (scalar reference) or ``"numpy"``
    #: (batched kernels, :mod:`repro.core.kernels`).  Both produce
    #: bit-identical decisions; the utility strategies dispatch on this.
    backend: str = "python"
    #: Small-world crossover: when True (the default), Model I decisions
    #: with few candidates stay on the scalar loop even under
    #: ``backend="numpy"`` — staging a tiny candidate row into arrays
    #: costs more than looping over it (see repro.core.kernels).  Both
    #: branches are bit-identical, so mixing them within one run is
    #: sound; tests pin this to False to force the kernels on small
    #: candidate sets.
    kernel_crossover: bool = True
    #: Shared array world for the numpy backend; the protocol layer
    #: passes one :class:`WorldArrays` across all rounds it builds so
    #: topology/availability arrays amortise.  Lazily created here when
    #: a bare context is used with ``backend="numpy"``.
    world: Optional[WorldArrays] = field(default=None, repr=False)
    #: Shared round-level batch planner (numpy backend); the protocol
    #: layer passes one :class:`BatchPlanner` across every round and
    #: connection it builds so quality rows batch across connections.
    #: Lazily created here when a bare context is used standalone.
    planner: Optional[BatchPlanner] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        validate_backend(self.backend)

    def batch_planner(self) -> BatchPlanner:
        """The context's batch planner (numpy backend), lazily built."""
        planner = self.planner
        if planner is None:
            if self.world is None:
                self.world = WorldArrays(self.overlay)
            planner = BatchPlanner(self.world)
            self.planner = planner
        return planner

    def use_kernels(self) -> bool:
        """True when this context's backend is the batched numpy kernels
        (position-aware selectivity included — predecessor-conditioned
        scoring runs in state space; see repro.core.kernels).  This is
        Model II's whole dispatch rule: its SPNE tables batch over the
        lookahead ball or the state axis, so it has no crossover."""
        return self.backend == "numpy"

    def use_kernels_model1(self, node: PeerNode) -> bool:
        """Model I dispatch: kernels, unless the candidate set is too
        small to beat the scalar loop (the small-world crossover)."""
        return self.use_kernels() and (
            not self.kernel_crossover
            or len(node.neighbors) >= MODEL1_KERNEL_MIN_CANDIDATES
        )

    def selectivity_predecessor(self, predecessor: Optional[int]) -> Optional[int]:
        return predecessor if self.position_aware_selectivity else None

    def edge_quality_for(
        self, node: PeerNode, neighbor: int, predecessor: Optional[int]
    ) -> float:
        """``q(node, neighbor)`` from the live histories and probe counters
        — :func:`repro.core.edge_quality.edge_quality` with this context's
        connection, round, weights and selectivity predecessor."""
        sel_pred = self.selectivity_predecessor(predecessor)
        PERF.edges_scored += 1
        return edge_quality(
            node,
            neighbor,
            self.history_of(node.node_id),
            cid=self.cid,
            round_index=self.round_index,
            weights=self.weights,
            predecessor=sel_pred,
            responder=self.responder,
            availability=node.availability_vector().get(neighbor),
        )

    def scored_candidates(
        self, node: PeerNode, predecessor: Optional[int]
    ) -> List[Tuple[int, float]]:
        """``[(neighbor, q(node, neighbor)), ...]`` over the current
        candidate set — the inner loop of both utility models."""
        return [
            (nbr, self.edge_quality_for(node, nbr, predecessor))
            for nbr in self.candidates(node, predecessor)
        ]

    def history_of(self, node_id: int) -> HistoryProfile:
        return self.histories[node_id]

    def live_neighbors(self, node: PeerNode) -> List[int]:
        """The node's currently-online neighbours (sorted: determinism)."""
        return sorted(
            nbr for nbr in node.neighbors if self.overlay.is_online(nbr)
        )

    def candidates(self, node: PeerNode, predecessor: Optional[int]) -> List[int]:
        """Next-hop candidates: live neighbours, no self, no responder,
        predecessor only as a last resort.

        The responder is excluded because *delivery* is governed by the
        termination policy (footnote 2: path length is controlled by the
        forwarding probability, not by routing); the quality-1 delivery
        edge is appended when the coin says "deliver".
        """
        live = [
            n
            for n in self.live_neighbors(node)
            if n != node.node_id and n != self.responder
        ]
        if predecessor is not None:
            without_pred = [n for n in live if n != predecessor]
            if without_pred:
                return without_pred
        return live


class RoutingStrategy(abc.ABC):
    """Interface: pick the next hop, or None to decline (NULL strategy)."""

    name: str = "abstract"

    @abc.abstractmethod
    def select_next_hop(
        self,
        node: PeerNode,
        predecessor: Optional[int],
        context: ForwardingContext,
    ) -> Optional[int]:
        """Return the chosen neighbour id, or None for non-participation."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RandomRouting(RoutingStrategy):
    """Uniform random next hop among candidates (baseline / adversary)."""

    name = "random"

    def select_next_hop(
        self,
        node: PeerNode,
        predecessor: Optional[int],
        context: ForwardingContext,
    ) -> Optional[int]:
        cands = context.candidates(node, predecessor)
        if not cands:
            return None
        # Responder reachable? In Crowds-style systems any node may submit
        # directly; the termination policy handles delivery.  Here we only
        # pick among overlay neighbours.
        return int(context.rng.choice(cands))


def _score_edges_model1(
    node: PeerNode,
    predecessor: Optional[int],
    context: ForwardingContext,
) -> List[Tuple[float, float, int]]:
    """(utility, quality, neighbor) triples for every candidate, eq. 1."""
    out = []
    perf = PERF
    for nbr, q in context.scored_candidates(node, predecessor):
        cost = context.cost_model.decision_cost(
            node.participation_cost, node.node_id, nbr, context.contract.payload_size
        )
        u = forwarder_utility_model1(context.contract, q, cost)
        perf.utility_evaluations += 1
        out.append((u, q, nbr))
    return out


class UtilityModelI(RoutingStrategy):
    """Greedy edge-quality utility maximiser (eq. 1).

    Sorting the d candidate utilities is the paper's O(log d)-per-decision
    mechanism; we take the argmax directly (same choice, O(d)).
    """

    name = "utility-I"

    #: Decline to forward when the best utility falls below this (the paper
    #: uses 0: a rational node never pays to participate).
    participation_threshold: float = 0.0

    def select_next_hop(
        self,
        node: PeerNode,
        predecessor: Optional[int],
        context: ForwardingContext,
    ) -> Optional[int]:
        if context.use_kernels_model1(node):
            return context.batch_planner().decide_model1(
                self, node, predecessor, context
            )
        best = argmax_with_quality_tiebreak(
            _score_edges_model1(node, predecessor, context)
        )
        if best is None or best[0] < self.participation_threshold:
            return None
        return best[2]


class UtilityModelII(RoutingStrategy):
    """Path-global utility via bounded backward induction (§2.4.3).

    The quality of ``pi(i, j, R)`` is estimated as the *mean edge quality*
    of the best path ``i -> j -> ... -> R`` found by recursing up to
    ``lookahead`` edges past ``j``, assuming each downstream node picks its
    own quality-maximising successor (subgame-perfect play).  Mean (not
    sum) keeps the score in [0, 1] so ``P_r`` weighs both models equally.

    **Shared SPNE memo.**  One decision expands overlapping subtrees: the
    candidates of a node largely share their downstream neighbourhoods.
    ``select_next_hop`` therefore builds a single memo for the whole
    candidate set, keyed ``(node, predecessor, depth)``, turning the
    per-decision cost from O(d * b^L) tree expansions into one memoised
    pass over the reachable subgraph.  The predecessor is part of the key
    because it shapes the candidate set (a node avoids routing back to
    whoever handed it the payload when an alternative exists), which
    makes the memoised recursion *exactly* equivalent to the pure,
    memo-free backward induction — the differential tests assert this.
    """

    name = "utility-II"
    participation_threshold: float = 0.0

    def __init__(self, lookahead: int = 2) -> None:
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        self.lookahead = lookahead

    def __repr__(self) -> str:
        return f"UtilityModelII(lookahead={self.lookahead})"

    def _best_downstream(
        self,
        node_id: int,
        predecessor: Optional[int],
        depth: int,
        context: ForwardingContext,
        memo: Dict[Tuple[int, Optional[int], int], Tuple[float, int]],
    ) -> Tuple[float, int]:
        """Best (sum_quality, n_edges) of a path from ``node_id`` to the
        responder using at most ``depth`` edges.  (0.0, 0) if no progress
        is possible.

        ``memo`` is shared across the whole candidate set of one decision;
        the ``(node_id, predecessor, depth)`` key makes the memoised value
        independent of expansion order (see the class docstring).
        """
        if depth == 0:
            return (0.0, 0)
        key = (node_id, predecessor, depth)
        hit = memo.get(key)
        if hit is not None:
            PERF.spne_memo_hits += 1
            return hit
        PERF.spne_memo_misses += 1
        node = context.overlay.nodes[node_id]
        best_sum, best_n = 0.0, 0
        best_mean = -1.0
        for nbr, q in context.scored_candidates(node, predecessor):
            tail_sum, tail_n = self._best_downstream(
                nbr, node_id, depth - 1, context, memo
            )
            total_sum, total_n = q + tail_sum, 1 + tail_n
            mean = total_sum / total_n
            if mean > best_mean:
                best_mean, best_sum, best_n = mean, total_sum, total_n
        memo[key] = (best_sum, best_n)
        return memo[key]

    def path_quality_through(
        self,
        node: PeerNode,
        neighbor: int,
        predecessor: Optional[int],
        context: ForwardingContext,
        memo: Optional[Dict[Tuple[int, Optional[int], int], Tuple[float, int]]] = None,
    ) -> float:
        """Normalised quality of the best path node -> neighbor -> ... -> R.

        The terminal delivery edge into R always has quality 1 (§2.3), so
        it is appended to every candidate's path before normalising.

        ``memo`` lets :meth:`select_next_hop` share one backward-induction
        table across its whole candidate loop; a standalone call gets a
        private (equivalent) one.
        """
        q_first = context.edge_quality_for(node, neighbor, predecessor)
        if memo is None:
            memo = {}
        tail_sum, tail_n = self._best_downstream(
            neighbor, node.node_id, self.lookahead, context, memo
        )
        return (q_first + tail_sum + 1.0) / (1 + tail_n + 1)

    def select_next_hop(
        self,
        node: PeerNode,
        predecessor: Optional[int],
        context: ForwardingContext,
    ) -> Optional[int]:
        # One shared SPNE memo for the entire candidate set: overlapping
        # downstream subtrees are expanded exactly once per decision.
        with context.tracer.span("spne.decide"):
            if context.use_kernels():
                return context.batch_planner().decide_model2(
                    self, node, predecessor, context
                )
            memo: Dict[Tuple[int, Optional[int], int], Tuple[float, int]] = {}
            scored: List[Tuple[float, float, int]] = []
            perf = PERF
            for nbr, _q in context.scored_candidates(node, predecessor):
                pq = self.path_quality_through(node, nbr, predecessor, context, memo=memo)
                cost = context.cost_model.decision_cost(
                    node.participation_cost,
                    node.node_id,
                    nbr,
                    context.contract.payload_size,
                )
                u = forwarder_utility_model2(context.contract, pq, cost)
                perf.utility_evaluations += 1
                scored.append((u, pq, nbr))
            best = argmax_with_quality_tiebreak(scored)
            if best is None or best[0] < self.participation_threshold:
                return None
            return best[2]


def strategy_by_name(name: str, **kwargs: Any) -> RoutingStrategy:
    """Factory used by configs: 'random' | 'utility-I' | 'utility-II'."""
    table = {
        "random": RandomRouting,
        "utility-I": UtilityModelI,
        "utility-II": UtilityModelII,
    }
    try:
        cls = table[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {sorted(table)}"
        ) from None
    return cls(**kwargs)
