"""Anonymity defences layered on the incentive mechanism (§5).

The paper lists attacks its technical report addresses; this module
implements the two standard defences from the literature that slot into
our protocol, so the attack/defence trade-offs are measurable:

- **Guard nodes** (Wright et al.'s defence against the predecessor
  attack, later adopted by Tor): the initiator pins a fixed first hop
  per series instead of re-selecting one every round.  A corrupt
  first-position forwarder then sees the *guard* as predecessor in all
  but the guarded hop, collapsing the attack's signal — unless the guard
  itself is corrupt, which happens with probability ~f once, not per
  round.
- **Connection-identifier rotation** (against the §5(3) history-profile
  attack): the wire-level cid changes every ``epoch`` rounds, so a
  captured history profile links at most one epoch of hops.  The cost is
  a selectivity reset at each rotation: stored history under the old cid
  no longer informs edge quality — a quantified tension between
  anonymity and the mechanism's reuse signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.network.overlay import Overlay


@dataclass
class GuardRegistry:
    """Per-initiator pinned first hops.

    ``assign`` draws a guard uniformly from the online population
    (excluding the initiator and responder); ``live_guard`` returns it
    while it is online, re-assigning only when the guard departs
    permanently (re-assignment on every blip would reopen the attack).
    """

    overlay: Overlay
    rng: np.random.Generator
    guards: Dict[int, int] = field(default_factory=dict)
    reassignments: int = 0

    def assign(self, initiator: int, exclude: "tuple[int, ...]" = ()) -> int:
        banned = {initiator, *exclude}
        guard = self.overlay.random_online_peer(exclude=banned)
        if guard is None:
            raise ValueError("no online candidate for guard")
        self.guards[initiator] = guard
        return guard

    def live_guard(
        self, initiator: int, exclude: "tuple[int, ...]" = ()
    ) -> Optional[int]:
        """The pinned guard if usable right now.

        - no guard yet -> assign one;
        - guard online -> return it;
        - guard departed permanently -> re-assign (counted);
        - guard temporarily offline -> None (the builder falls back to
          its strategy for this round only; re-pinning on every blip
          would reopen the predecessor attack).
        """
        from repro.network.node import NodeState

        guard = self.guards.get(initiator)
        if guard is None:
            return self._try_assign(initiator, exclude)
        if self.overlay.is_online(guard) and guard not in exclude:
            return guard
        node = self.overlay.nodes.get(guard)
        if node is None or node.state is NodeState.DEPARTED:
            self.reassignments += 1
            return self._try_assign(initiator, exclude)
        return None

    def _try_assign(self, initiator: int, exclude: "tuple[int, ...]") -> Optional[int]:
        try:
            return self.assign(initiator, exclude=exclude)
        except ValueError:
            return None


@dataclass
class CidRotator:
    """Wire-cid schedule for one series: a fresh cid every ``epoch`` rounds.

    Wire cids are drawn from a disjoint namespace per series so rotated
    epochs cannot collide across series.
    """

    series_cid: int
    epoch: int
    _base: int = field(init=False)

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValueError(f"epoch must be >= 1, got {self.epoch}")
        # 2**20 epochs per series is far beyond any run length.
        self._base = self.series_cid * (2**20)

    def wire_cid(self, round_index: int) -> int:
        """The cid used on the wire for the given (1-based) round."""
        if round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {round_index}")
        return self._base + (round_index - 1) // self.epoch

    def epoch_round(self, round_index: int) -> int:
        """The round number *within* the current epoch (1-based) — what
        history selectivity can actually see."""
        if round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {round_index}")
        return (round_index - 1) % self.epoch + 1
