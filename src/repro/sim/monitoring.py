"""Run counters for simulations.

- :class:`PerfCounters` / :data:`PERF` — hot-path profiling counters for
  the routing fast path (selectivity queries, availability cache hits,
  edges scored, SPNE memo reuse).
- :class:`DegradationCounters` — per-run fault/recovery counters
  (reformations, retries, dropped rounds, deferred settlements) filled
  by :class:`repro.sim.faults.FaultInjector` and the recovery layer.
- :func:`ascii_bars` — a horizontal bar chart for terminal figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


class PerfCounters:
    """Cumulative hot-path counters for the edge-scoring fast path.

    A plain slotted object: increments are ordinary attribute operations
    (the cheapest thing Python offers), so they stay on unconditionally
    in the innermost routing loops.  A run happens on one thread, so the
    process-wide :data:`PERF` instance needs no locking; a shard worker
    process counts into its own copy and ships a :meth:`snapshot` back.

    - ``selectivity_queries`` — indexed ``HistoryProfile.selectivity`` calls;
    - ``availability_cache_hits`` / ``availability_cache_misses`` — whether
      ``PeerNode.availability_vector`` was served from the cached
      normalisation or had to re-sum session times;
    - ``edges_scored`` — edge-quality evaluations performed (every scalar
      ``ForwardingContext.edge_quality_for`` call, every kernel row element);
    - ``spne_memo_hits`` / ``spne_memo_misses`` — backward-induction subtree
      reuse inside ``UtilityModelII`` (one shared memo per decision);
    - ``utility_evaluations`` — forwarder-utility function evaluations
      (models I and II combined).

    Array-backend (``repro.core.kernels``) counters:

    - ``kernel_calls`` — batched kernel evaluations (edge-block scoring,
      SPNE level sweeps, flat quality builds);
    - ``kernel_batch_elements`` — total elements across those calls
      (``kernel_batch_elements / kernel_calls`` is the mean batch size);
    - ``array_rebuilds`` — WorldArrays topology rebuilds (O(churn));
    - ``alpha_refreshes`` — WorldArrays ``alpha_flat`` recomputations;
    - ``alpha_row_resyncs`` — session-time rows re-read from their node
      (every row per rebuild, then only what a mirrored sweep missed);
    - ``hit_row_fallbacks`` — full quality rows whose selectivity counts
      came from per-edge bisects because the connection already had
      history at or past the round being built (0 in scenario runs);
    - ``spne_ball_sweeps`` — Model II decisions whose backward induction
      ran over the deciding node's own lookahead ball instead of the
      whole state axis (0 on small worlds, see ``BatchPlanner``);
    - ``spne_tables`` — full-sweep tables built: level stacks started over
      the whole state axis, one per round table whose Model II decisions
      take the full sweep (plus one per mid-round liveness or
      availability change that invalidates the stack).  Compare it with
      completed rounds: at paper size it stays just under one per round.
    """

    _FIELDS = (
        "selectivity_queries",
        "availability_cache_hits",
        "availability_cache_misses",
        "edges_scored",
        "spne_memo_hits",
        "spne_memo_misses",
        "utility_evaluations",
        "kernel_calls",
        "kernel_batch_elements",
        "array_rebuilds",
        "alpha_refreshes",
        "alpha_row_resyncs",
        "hit_row_fallbacks",
        "spne_ball_sweeps",
        "spne_tables",
    )

    __slots__ = _FIELDS

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for name in self._FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Current values as a plain dict (stable key order)."""
        return {name: getattr(self, name) for name in self._FIELDS}

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter increments relative to an earlier :meth:`snapshot`."""
        return {
            name: getattr(self, name) - before.get(name, 0)
            for name in self._FIELDS
        }

    def absorb(self, snapshot: Dict[str, int]) -> None:
        """Add another counter set's :meth:`snapshot` into this one.

        Folds counters accumulated elsewhere — a shard worker process —
        back into this instance.  Unknown keys are ignored so snapshots
        from older field sets keep merging.
        """
        for name in self._FIELDS:
            inc = snapshot.get(name, 0)
            if inc:
                setattr(self, name, getattr(self, name) + inc)


#: Process-wide hot-path counters.  ``run_scenario`` brackets each run
#: with :meth:`PerfCounters.snapshot` / :meth:`PerfCounters.delta_since`.
PERF = PerfCounters()


@dataclass
class DegradationCounters:
    """Fault-injection and recovery bookkeeping for one run.

    Unlike :data:`PERF` this is *per-run* state: each
    :class:`~repro.sim.faults.FaultInjector` owns one instance, the
    recovery layer increments the retry/deferral counters on the same
    instance, and ``run_scenario`` surfaces the snapshot through
    ``ScenarioResult.degradation``.

    Injected faults:

    - ``messages_dropped`` / ``messages_delayed`` — transport-level drops
      and extra delays, per message;
    - ``hops_lost`` — path-formation hops lost in transit;
    - ``forwarder_crashes`` — forwarders crashed mid-round;
    - ``probe_timeouts`` — probe attempts that timed out;
    - ``bank_denials`` — bank operations refused during outage windows.

    Degradation and recovery:

    - ``reformations`` — path reformations observed by the builder;
    - ``path_retries`` / ``probe_retries`` / ``settlement_retries`` —
      backoff-governed retry attempts per subsystem;
    - ``rounds_dropped`` — rounds whose transported payload or
      confirmation was lost;
    - ``rounds_abandoned`` — rounds still failed after every path retry;
    - ``deferred_settlements`` — settlements postponed past a bank
      outage; ``settlements_failed`` — settlements abandoned after the
      retry budget.
    """

    messages_dropped: int = 0
    messages_delayed: int = 0
    hops_lost: int = 0
    forwarder_crashes: int = 0
    probe_timeouts: int = 0
    bank_denials: int = 0
    reformations: int = 0
    path_retries: int = 0
    probe_retries: int = 0
    settlement_retries: int = 0
    rounds_dropped: int = 0
    rounds_abandoned: int = 0
    deferred_settlements: int = 0
    settlements_failed: int = 0

    _FIELDS = (
        "messages_dropped",
        "messages_delayed",
        "hops_lost",
        "forwarder_crashes",
        "probe_timeouts",
        "bank_denials",
        "reformations",
        "path_retries",
        "probe_retries",
        "settlement_retries",
        "rounds_dropped",
        "rounds_abandoned",
        "deferred_settlements",
        "settlements_failed",
    )

    def reset(self) -> None:
        for name in self._FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Current values as a plain dict (stable key order)."""
        return {name: getattr(self, name) for name in self._FIELDS}

    def absorb(self, snapshot: Dict[str, int]) -> None:
        """Add another instance's :meth:`snapshot` into this one (used to
        fold shard-worker degradation counts into the run's totals)."""
        for name in self._FIELDS:
            inc = snapshot.get(name, 0)
            if inc:
                setattr(self, name, getattr(self, name) + inc)


def ascii_bars(
    labels: Sequence[str], values: Sequence[float], width: int = 40
) -> str:
    """Simple horizontal bar chart for terminal 'figures'."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not values:
        return ""
    peak = max(values)
    label_w = max(len(str(l)) for l in labels)
    lines = []
    for label, value in zip(labels, values):
        n = 0 if peak <= 0 else int(round(value / peak * width))
        lines.append(f"{str(label).rjust(label_w)} | {'#' * n} {value:g}")
    return "\n".join(lines)
