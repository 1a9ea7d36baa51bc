"""Unified observability layer: structured events, spans, metrics.

Three cooperating primitives, each usable on its own:

- :mod:`repro.obs.events` — a typed, structured **event bus**
  (:class:`EventBus`) recording per-run protocol events (path formation
  and reformation, hop forwarding, probe sweeps/timeouts/retries, churn
  join/leave, escrow deposit/release/abort, bank denials, fault
  injection, settlement), each stamped with simulation time, series
  ``cid``, round index and node ids, plus a JSONL exporter/importer
  (:class:`RunTrace`).
- :mod:`repro.obs.tracing` — a nested **span tracer**
  (:class:`SpanTracer`) recording sim-time intervals and wall-clock
  durations around path building, SPNE decision evaluation, probing
  sweeps and settlement.  :data:`NULL_TRACER` is the zero-allocation
  disabled path: its ``span()`` returns one shared no-op context
  manager, so instrumented call sites cost a method call and nothing
  else when observability is off.
- :mod:`repro.obs.metrics` — a **metrics registry**
  (:class:`MetricsRegistry`): named counters and gauges with keyword
  labels and Prometheus text-format / JSON exporters.  The
  process-wide :data:`repro.sim.monitoring.PERF` counters and the
  per-run ``DegradationCounters`` keep their plain attribute-increment
  APIs and are absorbed into the registry as registered instruments via
  :meth:`MetricsRegistry.register_counters`.

Determinism contract: nothing in this package ever touches
:class:`repro.sim.rng.RandomStreams` or draws randomness — with
observability disabled (the default) a run is bit-identical to an
uninstrumented one, and enabling it changes timings only, never
decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from repro.obs.events import TRACE_SCHEMA, EventBus, ObsEvent, RunTrace
from repro.obs.metrics import METRICS_SCHEMA, Counter, Gauge, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, NullTracer, SpanRecord, SpanTracer

__all__ = [
    "Counter",
    "EventBus",
    "Gauge",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ObsConfig",
    "ObsEvent",
    "Observability",
    "RunTrace",
    "SpanRecord",
    "SpanTracer",
    "TRACE_SCHEMA",
]


@dataclass(frozen=True)
class ObsConfig:
    """What to record when observability is enabled.

    The all-default instance records everything; ``hop_events=False``
    silences the chattiest channel (one ``hop.forward`` event per
    forwarding instance) while keeping the round-level events.
    """

    events: bool = True
    spans: bool = True
    hop_events: bool = True

    def any_enabled(self) -> bool:
        return self.events or self.spans


@dataclass
class Observability:
    """One run's bundle of live instrumentation sinks.

    Built by the scenario harness when tracing is requested and threaded
    into the subsystems (path builder, prober, bank, fault injector).
    ``bus`` is ``None`` when events are disabled; ``tracer`` degrades to
    :data:`NULL_TRACER` when spans are disabled, so consumers can always
    call ``obs.tracer.span(...)`` unconditionally.
    """

    bus: Optional[EventBus]
    tracer: SpanTracer
    config: ObsConfig

    @classmethod
    def create(
        cls,
        clock: Optional[Callable[[], float]] = None,
        config: Optional[ObsConfig] = None,
    ) -> "Observability":
        cfg = config if config is not None else ObsConfig()
        bus = EventBus(clock=clock) if cfg.events else None
        tracer = SpanTracer(clock=clock) if cfg.spans else NULL_TRACER
        return cls(bus=bus, tracer=tracer, config=cfg)

    def run_trace(self, meta: Optional[Mapping[str, object]] = None) -> RunTrace:
        """Freeze the collected events and spans into a portable trace."""
        return RunTrace(
            meta=dict(meta or {}),
            events=list(self.bus.events) if self.bus is not None else [],
            spans=list(self.tracer.spans),
        )
