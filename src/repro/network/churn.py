"""Churn: Pareto sessions, off-times, permanent departures.

The paper models session times "using a Pareto distribution and the
median session time ... set as 60 mins" (§3).  Free riding (§1) appears as
*permanent* departures: some nodes leave for good after a session, so the
availability ratio session-time/lifetime (§2.1) is meaningful.  The
paper's Poisson joins of fresh nodes are not modelled: churn adds no
nodes, so departures shrink the population.

:func:`node_lifecycle` is the per-node process: online for a Pareto
session, then either depart permanently (probability ``depart_prob``) or
go offline for an exponential off-time and rejoin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.network.overlay import Overlay
from repro.obs.events import EventBus
from repro.sim.distributions import Exponential, Pareto
from repro.sim.engine import Environment


@dataclass(frozen=True)
class ChurnModel:
    """Parameters of the churn process.

    Defaults follow the paper: Pareto sessions with a 60-minute median;
    off-times with a 30-minute mean (the paper does not state a value; the
    estimate is within the range of the Saroiu et al. study it cites);
    a 10% chance of permanent departure after each session.
    """

    session: Pareto = field(default_factory=lambda: Pareto.with_median(60.0))
    offtime: Exponential = field(default_factory=lambda: Exponential(mean=30.0))
    depart_prob: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.depart_prob <= 1.0:
            raise ValueError(f"depart_prob out of range: {self.depart_prob}")


def node_lifecycle(
    env: Environment,
    overlay: Overlay,
    node_id: int,
    model: ChurnModel,
    rng: np.random.Generator,
    session_scale: "Callable[[int], float] | None" = None,
    bus: "Optional[EventBus]" = None,
):
    """Drive one (already online) node through session/off-time cycles.

    ``session_scale(node_id)`` — evaluated at the *start* of each session
    — multiplies the sampled session duration.  This is how the incentive
    mechanism feeds back into availability: a peer that is earning
    forwarding income stays online longer (the paper's §1 thesis that
    incentives "induce the peer nodes to provide anonymity forwarding as
    reliable service").  Default: exogenous churn (scale 1).

    ``bus`` records ``churn.leave`` / ``churn.join`` / ``churn.depart``
    events (emission follows the overlay transition, so attaching a bus
    never changes the RNG sequence).
    """
    node = overlay.nodes[node_id]
    if not node.is_online:
        raise ValueError(f"node {node_id} must be online when lifecycle starts")
    while True:
        scale = 1.0
        if session_scale is not None:
            scale = session_scale(node_id)
            if scale <= 0:
                raise ValueError(f"session scale must be positive, got {scale}")
        yield env.timeout(model.session.sample(rng) * scale)
        if rng.random() < model.depart_prob:
            overlay.depart(node_id, env.now)
            if bus is not None:
                bus.emit("churn.depart", node=node_id)
            return
        # An injected crash (repro.sim.faults) may have taken the node
        # offline mid-session; the guarded leave/join keep the lifecycle
        # and the crash/recovery processes from tripping over each other.
        if overlay.is_online(node_id):
            overlay.leave(node_id, env.now)
            if bus is not None:
                bus.emit("churn.leave", node=node_id)
        yield env.timeout(model.offtime.sample(rng))
        # The population may have shrunk below 2 while we slept; join()
        # handles the (re)wiring of neighbours if the set was never built.
        if not overlay.is_online(node_id):
            overlay.join(node_id, env.now)
            if bus is not None:
                bus.emit("churn.join", node=node_id)
