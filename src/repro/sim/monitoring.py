"""Online statistics and time-series monitoring for simulations.

- :class:`RunningStats` — Welford's online mean/variance (numerically
  stable; no sample storage).
- :class:`TimeSeries` — (time, value) recorder with time-weighted mean
  (the right average for state variables like queue length or online
  population).
- :class:`Histogram` — fixed-bin counter for payoff/latency
  distributions.
- :class:`PerfCounters` / :data:`PERF` — hot-path profiling counters for
  the routing fast path (selectivity queries, availability cache hits,
  edges scored, SPNE memo reuse).
- :class:`DegradationCounters` — per-run fault/recovery counters
  (reformations, retries, dropped rounds, deferred settlements) filled
  by :class:`repro.sim.faults.FaultInjector` and the recovery layer.

These are substrate utilities: the scenario runner and benchmarks use
them, and they are exported for downstream models.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


class RunningStats:
    """Welford online mean/variance/min/max."""

    def __init__(self):
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, x: float) -> None:
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)
        self._min = min(self._min, x)
        self._max = max(self._max, x)

    def extend(self, xs) -> None:
        for x in xs:
            self.add(x)

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError("no samples")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0 with a single sample."""
        if self._n == 0:
            raise ValueError("no samples")
        if self._n == 1:
            return 0.0
        return self._m2 / (self._n - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        if self._n == 0:
            raise ValueError("no samples")
        return self._min

    @property
    def max(self) -> float:
        if self._n == 0:
            raise ValueError("no samples")
        return self._max

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Parallel-combine two accumulators (Chan et al.)."""
        if other._n == 0:
            return self
        if self._n == 0:
            self._n, self._mean, self._m2 = other._n, other._mean, other._m2
            self._min, self._max = other._min, other._max
            return self
        n = self._n + other._n
        delta = other._mean - self._mean
        self._m2 = self._m2 + other._m2 + delta * delta * self._n * other._n / n
        self._mean += delta * other._n / n
        self._n = n
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self


@dataclass
class TimeSeries:
    """Step-function recorder: value holds from its timestamp onwards."""

    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(f"time goes backwards: {time} < {self.times[-1]}")
        self.times.append(time)
        self.values.append(value)

    def at(self, time: float) -> float:
        """Value in effect at ``time`` (last recorded value before it)."""
        if not self.times:
            raise ValueError("empty series")
        idx = bisect_right(self.times, time) - 1
        if idx < 0:
            raise ValueError(f"time {time} precedes first record {self.times[0]}")
        return self.values[idx]

    def time_weighted_mean(self, until: "float | None" = None) -> float:
        """Integral of the step function divided by elapsed time."""
        if not self.times:
            raise ValueError("empty series")
        end = until if until is not None else self.times[-1]
        if end < self.times[0]:
            raise ValueError("until precedes first record")
        total = 0.0
        for i, (t, v) in enumerate(zip(self.times, self.values)):
            t_next = self.times[i + 1] if i + 1 < len(self.times) else end
            t_next = min(t_next, end)
            if t_next > t:
                total += v * (t_next - t)
        span = end - self.times[0]
        if span == 0:
            return self.values[-1]
        return total / span

    def __len__(self) -> int:
        return len(self.times)


class Histogram:
    """Fixed-bin histogram over [lo, hi) with under/overflow bins."""

    def __init__(self, lo: float, hi: float, bins: int):
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.lo, self.hi, self.bins = lo, hi, bins
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0

    def add(self, x: float) -> None:
        if x < self.lo:
            self.underflow += 1
        elif x >= self.hi:
            self.overflow += 1
        else:
            idx = int((x - self.lo) / (self.hi - self.lo) * self.bins)
            self.counts[min(idx, self.bins - 1)] += 1

    def extend(self, xs) -> None:
        for x in xs:
            self.add(x)

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def bin_edges(self) -> List[Tuple[float, float]]:
        width = (self.hi - self.lo) / self.bins
        return [
            (self.lo + i * width, self.lo + (i + 1) * width)
            for i in range(self.bins)
        ]

    def normalized(self) -> List[float]:
        """In-range bin frequencies (sum to 1 when data is in range)."""
        t = self.total
        if t == 0:
            raise ValueError("empty histogram")
        return [c / t for c in self.counts]


class PerfCounters:
    """Cumulative hot-path counters for the edge-scoring fast path.

    A plain slotted object: increments are ordinary attribute operations
    (the cheapest thing Python offers), so they stay on unconditionally
    in the innermost routing loops.  Thread isolation lives one level up
    in :class:`ThreadLocalPerf` — this class itself carries no locking.

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
      whole state axis (0 on small worlds, see ``BatchPlanner``).
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

        Folds counters accumulated elsewhere — a shard worker process,
        a finished thread — back into this instance.  Unknown keys are
        ignored so snapshots from older field sets keep merging.
        """
        for name in self._FIELDS:
            inc = snapshot.get(name, 0)
            if inc:
                setattr(self, name, getattr(self, name) + inc)


class _PerfLocal(threading.local):
    def __init__(self):
        # threading.local calls __init__ once per accessing thread, so
        # every thread gets its own zeroed PerfCounters.
        self.counters = PerfCounters()


class ThreadLocalPerf:
    """Per-thread :class:`PerfCounters` behind one shared name.

    Each thread sees (and mutates) its own counter set, so
    ``run_scenario``'s snapshot/delta bracketing stays correct when
    replicates run concurrently in one process (``REPRO_JOBS``
    process-pool replicates are isolated by the fork anyway) — no lock
    anywhere.

    Direct attribute access (``PERF.edges_scored += 1``) works and is
    always safe, but routes through ``threading.local`` on every
    operation (~5x a plain increment).  Hot loops instead bind the
    per-thread instance once — ``perf = PERF.counters`` at the top of a
    round/decision, plain increments after that.  ``reset()`` zeroes the
    per-thread instance *in place*, so held ``PERF.counters`` references
    never go stale.  The one sharp edge: an object created on thread A
    that caches ``PERF.counters`` and is then driven from thread B
    writes to A's counters — exactly the shared-mutable behaviour a
    plain global had, so nothing regresses, but in-thread construction
    (what ``run_scenario`` does) is what yields true isolation.
    """

    __slots__ = ("_local",)

    _FIELDS = PerfCounters._FIELDS

    def __init__(self):
        object.__setattr__(self, "_local", _PerfLocal())

    @property
    def counters(self) -> PerfCounters:
        """This thread's counter instance (bind once in hot loops)."""
        return self._local.counters

    def reset(self) -> None:
        self._local.counters.reset()

    def snapshot(self) -> Dict[str, int]:
        return self._local.counters.snapshot()

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        return self._local.counters.delta_since(before)

    def absorb(self, snapshot: Dict[str, int]) -> None:
        self._local.counters.absorb(snapshot)

    def __getattr__(self, name: str):
        return getattr(self._local.counters, name)

    def __setattr__(self, name: str, value) -> None:
        setattr(self._local.counters, name, value)


#: Process-wide counter facade used by the routing hot path: one name,
#: per-thread storage (see :class:`ThreadLocalPerf`).
PERF = ThreadLocalPerf()


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

    def total_faults_injected(self) -> int:
        """Faults actually injected (drop/delay/loss/crash/timeout/denial)."""
        return (
            self.messages_dropped
            + self.messages_delayed
            + self.hops_lost
            + self.forwarder_crashes
            + self.probe_timeouts
            + self.bank_denials
        )

    def total_retries(self) -> int:
        """Recovery attempts across all subsystems."""
        return self.path_retries + self.probe_retries + self.settlement_retries


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
