"""Normal-form games: payoff tensors and solution concepts.

A game has ``n`` players; player ``i`` has a finite strategy list.  The
payoff tensor maps a strategy profile (one index per player) to a payoff
vector (one float per player).  Everything is exact enumeration — the
games the paper induces are small (3 strategies per stage), so brute force
is the honest tool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

Profile = Tuple[int, ...]


@dataclass
class NormalFormGame:
    """An n-player normal-form game.

    Parameters
    ----------
    strategies:
        ``strategies[i]`` is player i's list of strategy labels.
    payoffs:
        Array of shape ``(*strategy_counts, n_players)``.
    """

    strategies: Sequence[Sequence[str]]
    payoffs: np.ndarray

    def __post_init__(self):
        self.payoffs = np.asarray(self.payoffs, dtype=float)
        expected = tuple(len(s) for s in self.strategies) + (self.n_players,)
        if self.payoffs.shape != expected:
            raise ValueError(
                f"payoff tensor shape {self.payoffs.shape} != expected {expected}"
            )

    @property
    def n_players(self) -> int:
        return len(self.strategies)

    def payoff(self, profile: Profile, player: int) -> float:
        return float(self.payoffs[tuple(profile) + (player,)])

    def profiles(self):
        """Iterate over all pure strategy profiles."""
        return itertools.product(*(range(len(s)) for s in self.strategies))

    # -- best responses ----------------------------------------------------
    def best_responses(self, player: int, others: Profile) -> List[int]:
        """Argmax strategies of ``player`` against a profile of the others.

        ``others`` has length n_players - 1 (player's slot removed).
        """
        best: List[int] = []
        best_val = -np.inf
        for s in range(len(self.strategies[player])):
            profile = others[:player] + (s,) + others[player:]
            v = self.payoff(profile, player)
            if v > best_val + 1e-12:
                best, best_val = [s], v
            elif abs(v - best_val) <= 1e-12:
                best.append(s)
        return best

    # -- dominance ------------------------------------------------------------
    def is_dominant(self, player: int, strategy: int, strict: bool = False) -> bool:
        """Is ``strategy`` dominant for ``player``?

        Uses the paper's definition ("a strategy which gives it an optimal
        utility irrespective of the strategies taken by other players"):
        weak dominance = at least as good as every alternative against
        every opposing profile; ``strict=True`` requires strictly better.
        """
        others_spaces = [
            range(len(s)) for i, s in enumerate(self.strategies) if i != player
        ]
        for others in itertools.product(*others_spaces):
            others = tuple(others)
            base = others[:player] + (strategy,) + others[player:]
            v = self.payoff(base, player)
            for alt in range(len(self.strategies[player])):
                if alt == strategy:
                    continue
                alt_profile = others[:player] + (alt,) + others[player:]
                av = self.payoff(alt_profile, player)
                if strict:
                    if v <= av + 1e-12:
                        return False
                elif v < av - 1e-12:
                    return False
        return True

    def dominant_strategies(self, player: int, strict: bool = False) -> List[int]:
        return [
            s
            for s in range(len(self.strategies[player]))
            if self.is_dominant(player, s, strict=strict)
        ]

    # -- equilibria --------------------------------------------------------------
    def pure_nash_equilibria(self) -> List[Profile]:
        """All pure-strategy Nash equilibria (each player best-responding)."""
        out: List[Profile] = []
        for profile in self.profiles():
            profile = tuple(profile)
            if all(
                profile[p]
                in self.best_responses(p, profile[:p] + profile[p + 1 :])
                for p in range(self.n_players)
            ):
                out.append(profile)
        return out

    def label_profile(self, profile: Profile) -> Tuple[str, ...]:
        return tuple(self.strategies[i][s] for i, s in enumerate(profile))
