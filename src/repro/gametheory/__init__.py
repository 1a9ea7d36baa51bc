"""Game-theoretic analysis substrate (§2.4).

The paper models forwarding/routing as a finite multi-stage game with the
peers as players.  This package provides the machinery to *state and
check* those claims:

- :mod:`~repro.gametheory.normal_form` — normal-form games over explicit
  payoff tensors: best responses, dominant strategies, pure Nash
  equilibria.
- :mod:`~repro.gametheory.extensive_form` — finite extensive-form game
  trees with backward induction (subgame-perfect equilibria).
- :mod:`~repro.gametheory.forwarding_game` — constructors that express the
  paper's forwarding stage game and the L-stage path-formation game in
  those terms.
- :mod:`~repro.gametheory.propositions` — Propositions 1-3 as executable
  predicates/experiments.
- :mod:`~repro.gametheory.stackelberg` — dynamic pricing: the
  initiator/forwarder Stackelberg pricing game and the market-priced
  ``P_f`` tatonnement.
"""

from repro.gametheory.extensive_form import GameTree, TreeNode, backward_induction
from repro.gametheory.forwarding_game import (
    FORWARD_NONRANDOM,
    FORWARD_RANDOM,
    NOT_PARTICIPATE,
    build_forwarding_stage_game,
    build_path_formation_game,
)
from repro.gametheory.normal_form import NormalFormGame
from repro.gametheory.stackelberg import (
    FollowerProfile,
    MarketPriceProcess,
    StackelbergEquilibrium,
    StackelbergPricingGame,
    follower_best_response,
    uniform_bandwidth_transmission_cost,
)
from repro.gametheory.propositions import (
    Proposition1Result,
    proposition1_experiment,
    proposition2_condition,
    proposition2_min_pf,
    proposition3_condition,
    proposition3_is_dominant,
)

__all__ = [
    "FORWARD_NONRANDOM",
    "FORWARD_RANDOM",
    "GameTree",
    "NOT_PARTICIPATE",
    "NormalFormGame",
    "TreeNode",
    "backward_induction",
    "build_forwarding_stage_game",
    "build_path_formation_game",
    "FollowerProfile",
    "MarketPriceProcess",
    "StackelbergEquilibrium",
    "StackelbergPricingGame",
    "follower_best_response",
    "uniform_bandwidth_transmission_cost",
    "Proposition1Result",
    "proposition1_experiment",
    "proposition2_condition",
    "proposition2_min_pf",
    "proposition3_condition",
    "proposition3_is_dominant",
]
