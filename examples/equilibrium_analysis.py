#!/usr/bin/env python
"""Game-theoretic analysis of the forwarding mechanism (§2.4).

Reproduces the paper's analytical story with executable games:

1. the per-stage participation/routing game — when benefits clear costs,
   (non-random, non-random) is the Nash equilibrium; when they don't,
   rational peers free-ride (NULL);
2. Proposition 2's participation threshold as a function of workload;
3. Proposition 3's dominance condition checked on explicit games;
4. the L-stage path-formation game solved by backward induction (SPNE).

Run:  python examples/equilibrium_analysis.py
"""

from repro.core.contracts import Contract
from repro.gametheory import (
    backward_induction,
    build_forwarding_stage_game,
    build_path_formation_game,
    proposition2_min_pf,
    proposition3_is_dominant,
)
from repro.gametheory.forwarding_game import STAGE_STRATEGIES, StageGameParams


def show_stage_game(contract: Contract, cost: float, label: str) -> None:
    game = build_forwarding_stage_game(
        StageGameParams(contract=contract, cost=cost), n_players=2
    )
    equilibria = [game.label_profile(p) for p in game.pure_nash_equilibria()]
    dominant = [
        STAGE_STRATEGIES[s] for s in game.dominant_strategies(0)
    ]
    print(f"  {label}:")
    print(f"    pure Nash equilibria: {equilibria}")
    print(f"    dominant strategies (player 0): {dominant}")


def main() -> None:
    print("=== 1. the forwarding stage game ===")
    rich = Contract.from_tau(forwarding_benefit=75.0, tau=2.0)
    show_stage_game(rich, cost=2.0, label="paper incentives (P_f=75, tau=2, C=2)")
    poor = Contract(forwarding_benefit=1.0, routing_benefit=1.0)
    show_stage_game(poor, cost=50.0, label="starved incentives (P_f=1, C=50)")

    print("\n=== 2. Proposition 2: participation threshold ===")
    for rounds in (5, 20, 100):
        threshold = proposition2_min_pf(
            participation_cost=2.0,
            transmission_cost=1.0,
            n_nodes=40,
            avg_path_length=3.3,
            rounds=rounds,
        )
        print(
            f"  k={rounds:3d} recurring connections -> "
            f"P_f must exceed {threshold:.2f}"
        )

    print("\n=== 3. Proposition 3: dominance of forwarding ===")
    for pf, cp, ct in ((75.0, 1.0, 1.0), (1.5, 1.0, 1.0), (0.5, 1.0, 1.0)):
        c = Contract.from_tau(pf, 2.0)
        condition, dominates = proposition3_is_dominant(c, cp, ct)
        print(
            f"  P_f={pf:5.1f} C_p={cp} C_t={ct}: condition "
            f"{'holds' if condition else 'fails'}, forwarding "
            f"{'dominates' if dominates else 'does not dominate'} NULL"
        )

    print("\n=== 4. SPNE of the path-formation game ===")
    # A small overlay: two routes to the responder (node 9) with different
    # edge qualities; backward induction should route along the best path.
    adjacency = {
        0: [(1, 0.9), (2, 0.4)],
        1: [(3, 0.8), (4, 0.3)],
        2: [(4, 0.9)],
        3: [(9, 0.9)],
        4: [(9, 0.6)],
    }
    tree, players = build_path_formation_game(
        adjacency, initiator=0, responder=9, contract=rich, hop_cost=2.0
    )
    result = backward_induction(tree)
    print(f"  players (node -> index): {players}")
    print(f"  equilibrium path from initiator 0: {' -> '.join(result.equilibrium_path)}")
    print(f"  equilibrium payoffs: "
          f"{[round(p, 1) for p in result.equilibrium_payoffs]}")
    print(f"  subgames solved: {tree.subgame_count()}")


if __name__ == "__main__":
    main()
