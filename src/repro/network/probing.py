"""Active probing: the §2.3 availability estimator.

"At the start of each probing period a peer *s* checks the liveness of
each neighbor.  If the neighbor is alive, its session time is updated as
``t_new = t_old + T``.  If a new neighbor is found, its session time is
updated as ``t_new = rand(0, T)``."

Dead (offline or departed) neighbours are replaced via the overlay's
discovery service; replacements start with a uniform ``rand(0, T)``
counter, exactly as the paper specifies for newly found neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.network.overlay import Overlay
from repro.obs.events import EventBus
from repro.obs.tracing import NULL_TRACER
from repro.sim.engine import Environment
from repro.sim.faults import FaultInjector, RetryPolicy

#: Probing period ``T`` in minutes (§3: peers probe their neighbours
#: every 5 minutes).
PROBE_PERIOD = 5.0


def _probe_alive(
    injector: "Optional[FaultInjector]",
    retry: "Optional[RetryPolicy]",
    bus: "Optional[EventBus]" = None,
    prober_id: "Optional[int]" = None,
    neighbor: "Optional[int]" = None,
) -> bool:
    """One fault-aware liveness check of an *actually live* neighbour.

    Without an injector the probe always succeeds.  With one, the first
    attempt may time out; the retry policy then governs how many re-probes
    are sent before the neighbour is (wrongly) declared dead.  Probes are
    sub-second traffic against minute-scale periods, so retries cost no
    simulated time — only randomness and counters.

    ``bus`` (when given) records each re-probe as ``probe.retry`` and the
    final false declaration as ``probe.timeout``; ``node`` on both events
    is the probed *neighbour*, ``prober`` in the data is the probing peer.
    """
    if injector is None or not injector.probe_times_out():
        return True
    if retry is not None:
        for _ in range(retry.max_retries):
            injector.stats.probe_retries += 1
            if bus is not None:
                bus.emit("probe.retry", node=neighbor, prober=prober_id)
            if not injector.probe_times_out():
                return True
    if bus is not None:
        bus.emit("probe.timeout", node=neighbor, prober=prober_id)
    return False


def run_probe_round(
    overlay: Overlay,
    node_id: int,
    period: float,
    rng: np.random.Generator,
    now: float,
    replace_dead: bool = True,
    discovery: "Callable[[int, tuple], Optional[int]] | None" = None,
    fault_injector: "Optional[FaultInjector]" = None,
    retry: "Optional[RetryPolicy]" = None,
    bus: "Optional[EventBus]" = None,
    online_mask: "Optional[np.ndarray]" = None,
) -> dict:
    """One probing round for one node.  Returns a small stats dict.

    - live neighbour: counter += ``period``;
    - dead neighbour: dropped and (if possible) replaced by a discovered
      online peer whose counter starts at ``rand(0, period)``.

    ``discovery(node_id, exclude)`` overrides the replacement source —
    pass :meth:`repro.network.gossip.GossipMembership.discover` for fully
    decentralised discovery; the default is the overlay's bootstrap
    oracle.

    ``fault_injector`` may time out probes of live neighbours; ``retry``
    governs re-probes before such a neighbour is declared dead (and then
    replaced like a genuinely dead one — a false positive the §2.3
    estimator has to absorb).  The returned dict gains a ``timed_out``
    count for those false declarations.

    ``online_mask`` (an :meth:`Overlay.online_mask` vector covering
    :meth:`Overlay.id_space`) lets a sweep over many nodes share one
    liveness snapshot.  Without a fault injector the whole round then
    runs array-native: liveness is one gather, all live credits land in
    one batched counter update (single cache invalidation), and only
    dead neighbours fall back to per-id replacement.  Equivalent to the
    per-neighbour loop — fault-free probes draw no randomness, credits
    never change membership, and dead neighbours are processed in their
    original relative order, so every replacement sees the same
    exclusion set and the same RNG stream.
    """
    if period <= 0:
        raise ValueError(f"probe period must be positive, got {period}")
    node = overlay.nodes[node_id]

    def find_replacement() -> "Optional[int]":
        exclude = (node_id, *node.neighbors)
        if discovery is not None:
            return discovery(node_id, exclude)
        return overlay.random_online_peer(exclude=exclude)

    def replace_one(nbr_id: int) -> int:
        node.remove_neighbor(nbr_id)
        if not replace_dead:
            return 0
        candidate = find_replacement()
        if candidate is None:
            return 0
        node.add_neighbor(
            candidate, initial_session_time=float(rng.uniform(0.0, period))
        )
        return 1

    alive = dead = replaced = timed_out = 0
    if fault_injector is None and node.neighbors:
        # Fault-free fast path: probes always succeed, so liveness alone
        # partitions the neighbour set and no per-probe RNG is drawn.
        ids = np.fromiter(
            node.neighbors, dtype=np.int64, count=len(node.neighbors)
        )
        top = int(ids.max()) + 1
        if online_mask is None or online_mask.size < top:
            online_mask = overlay.online_mask(max(overlay.id_space(), top))
        live = online_mask[ids]
        live_ids = ids[live]
        node.credit_session_times(live_ids.tolist(), period, now=now)
        alive = int(live_ids.size)
        for nbr_id in ids[~live].tolist():
            dead += 1
            replaced += replace_one(nbr_id)
    elif fault_injector is not None:
        for nbr_id in list(node.neighbors):
            if overlay.is_online(nbr_id) and _probe_alive(
                fault_injector, retry, bus=bus, prober_id=node_id, neighbor=nbr_id
            ):
                # Route the counter update through the node so its cached
                # availability normalisation is invalidated.
                node.credit_session_time(nbr_id, period, now=now)
                alive += 1
            else:
                if overlay.is_online(nbr_id):
                    timed_out += 1  # live neighbour lost to probe timeouts
                dead += 1
                replaced += replace_one(nbr_id)
    # Top up if the set shrank below the target degree in earlier rounds.
    if replace_dead:
        while len(node.neighbors) < node.degree:
            candidate = find_replacement()
            if candidate is None:
                break
            node.add_neighbor(
                candidate, initial_session_time=float(rng.uniform(0.0, period))
            )
            replaced += 1
    return {"alive": alive, "dead": dead, "replaced": replaced, "timed_out": timed_out}


def fast_full_sweep(overlay: Overlay, period: float, now: float) -> "Optional[dict]":
    """Whole-population probe sweep for the steady state: everyone
    online, every neighbour set at target degree.

    Under those preconditions every probe of every node succeeds, no
    neighbour is replaced, no top-up runs and **no RNG is drawn** — the
    sweep reduces to "credit every neighbour view by ``period``, stamp it
    seen at ``now`` and invalidate each node's availability cache once",
    which is what :func:`run_probe_round`'s fast path does per node.
    The credit is lazy: the sweep appends one entry to the overlay's
    sweep log (:meth:`Overlay.log_fast_sweep`), which each node applies
    before its views are next read or written.  Returns the sweep
    totals, or ``None`` when the preconditions do not hold (caller falls
    back to the per-node loop).  Eligibility is checked over the whole
    population *before* anything is logged, so a ``None`` return leaves
    the overlay untouched.  A sweep that ran is announced through
    :meth:`Overlay.notify_fast_sweep`, so array views of the session
    counters (:class:`repro.core.kernels.WorldArrays`) mirror it.

    The degree check is an O(N) scan; its eligible result is cached on
    the overlay under ``(topology_version, len(nodes), _next_id)``, and
    only when the scan saw every node wired to the overlay's topology
    listener (the rule of ``WorldArrays._wired_snapshot``): such nodes
    bump ``topology_version`` on every neighbour-set change, so while the
    token holds no degree has moved and a steady-state sweep is O(1).
    """
    nodes = overlay.nodes
    if not nodes or overlay.online_count() != len(nodes):
        return None
    token = (overlay.topology_version, len(nodes), overlay._next_id)
    cached = overlay._sweep_check
    if cached is not None and cached[0] == token:
        alive = cached[1]
    else:
        # The one bound method :meth:`Overlay.spawn_node` wires every
        # node to (an identity test: cheaper than ``==`` per node).
        topology_listener = overlay._listeners[0]
        wired = True
        alive = 0
        for node in nodes.values():
            # The raw dict: its size is all the check reads, and the
            # ``neighbors`` property would apply the pending credits.
            degree = len(node._neighbors)
            if degree < node.degree:
                return None
            alive += degree
            if node._topology_listener is not topology_listener:
                wired = False
        overlay._sweep_check = (token, alive) if wired else None
    overlay.log_fast_sweep(period, now)
    overlay.notify_fast_sweep(period)
    return {
        "alive": alive,
        "dead": 0,
        "replaced": 0,
        "timed_out": 0,
        "probed": len(nodes),
    }


@dataclass
class ActiveProber:
    """Periodic probing process for the whole population.

    A single process probes every online node each ``period`` minutes —
    equivalent to per-node probe processes with aligned phases, but one
    heap entry instead of N.
    """

    overlay: Overlay
    period: float
    rng: np.random.Generator
    #: Optional decentralised discovery backend (see run_probe_round).
    discovery: "Callable[[int, tuple], Optional[int]] | None" = None
    #: Optional per-period hook (e.g. GossipMembership.run_round).
    on_period: "Callable[[], object] | None" = None
    #: Optional fault source (probe timeouts) and re-probe policy.
    fault_injector: "Optional[FaultInjector]" = None
    retry: "Optional[RetryPolicy]" = None
    #: Optional observability sinks.  Per-probe "send" events would be the
    #: chattiest channel in the system (N*d per period), so the bus gets
    #: one aggregate ``probe.sweep`` event per period instead, and the
    #: tracer one ``probe.sweep`` span around the whole sweep.
    bus: "Optional[EventBus]" = None
    tracer: object = NULL_TRACER
    rounds_run: int = 0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"probe period must be positive, got {self.period}")

    def run(self, env: Environment):
        """Generator process: probe all online nodes every ``period``."""
        while True:
            yield env.timeout(self.period)
            # The sweep itself is synchronous (no yields), so it may be
            # wrapped in one span per period.
            with self.tracer.span("probe.sweep"):
                if self.on_period is not None:
                    self.on_period()
                swept = None
                if self.fault_injector is None and self.discovery is None:
                    swept = fast_full_sweep(self.overlay, self.period, env.now)
                if swept is not None:
                    probed = swept.pop("probed")
                    totals = swept
                else:
                    totals = {"alive": 0, "dead": 0, "replaced": 0, "timed_out": 0}
                    probed = 0
                    # One liveness snapshot for the whole sweep: the sweep
                    # is synchronous (no yields), so membership only
                    # changes through the sweep's own replacements — and
                    # those are drawn from the online set, never flipping
                    # a mask bit.
                    online_mask = self.overlay.online_mask(
                        self.overlay.id_space()
                    )
                    for node_id in self.overlay.online_ids():
                        stats = run_probe_round(
                            self.overlay,
                            node_id,
                            self.period,
                            self.rng,
                            env.now,
                            discovery=self.discovery,
                            fault_injector=self.fault_injector,
                            retry=self.retry,
                            bus=self.bus,
                            online_mask=online_mask,
                        )
                        for key in totals:
                            totals[key] += stats[key]
                        probed += 1
                if self.bus is not None:
                    self.bus.emit("probe.sweep", probed=probed, **totals)
            self.rounds_run += 1
