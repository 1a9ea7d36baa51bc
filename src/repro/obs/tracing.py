"""Nested span tracing with a zero-allocation disabled path.

A span is one timed region of a run: it records the simulation time at
entry and exit (via the tracer's clock) *and* the wall-clock duration
(``time.perf_counter``), plus its position in the nesting tree (parent
id and depth).  Spans are appended to :attr:`SpanTracer.spans` on
completion, so the list is ordered by exit time; the ids reconstruct
the tree.

The harness wraps four regions: ``path.build`` (one per formation
round), ``spne.decide`` (one per Utility-Model-II next-hop decision),
``probe.sweep`` (one per prober period) and ``settle.series`` (one per
series settlement), nested inside the ``scenario.setup`` /
``scenario.simulate`` / ``scenario.collect`` phase spans.

Spans are the only wall clock of a run: ``ScenarioResult.phase_timings``
is read from the phase and ``settle.series`` spans.  When obs spans are
off, ``run_scenario`` records just those on a :class:`SpanTracer` of its
own, while every component keeps :data:`NULL_TRACER`.

**Important**: spans must not straddle a simulation ``yield`` — the
tracer's nesting stack assumes the region runs synchronously.  All of
the wrapped regions above are yield-free.

Disabled path: :data:`NULL_TRACER` is a singleton whose ``span()``
returns one shared, stateless no-op context manager — calling it
allocates nothing, so instrumentation left in place costs a method call
and an empty ``with`` block when observability is off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (immutable)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    depth: int
    #: Simulation time at entry / exit (minutes).
    t0: float
    t1: float
    #: Wall-clock duration (seconds).
    wall: float
    attrs: Mapping[str, object] = field(default_factory=dict)

    def to_json_obj(self) -> Dict[str, object]:
        obj: Dict[str, object] = {
            "type": "span",
            "id": self.span_id,
            "name": self.name,
            "depth": self.depth,
            "t0": self.t0,
            "t1": self.t1,
            "wall": self.wall,
        }
        if self.parent_id is not None:
            obj["parent"] = self.parent_id
        if self.attrs:
            obj["attrs"] = dict(self.attrs)
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, object]) -> "SpanRecord":
        return cls(
            span_id=int(obj["id"]),
            parent_id=obj.get("parent"),
            name=str(obj["name"]),
            depth=int(obj["depth"]),
            t0=float(obj["t0"]),
            t1=float(obj["t1"]),
            wall=float(obj["wall"]),
            attrs=dict(obj.get("attrs", {})),
        )


class _ActiveSpan:
    """Context manager for one live span.  Created by ``tracer.span()``;
    the bookkeeping (ids, stack) happens at ``__enter__`` so an
    un-entered span object costs nothing."""

    __slots__ = (
        "_tracer", "name", "attrs", "span_id", "parent_id", "depth",
        "t0", "_wall0",
    )

    def __init__(self, tracer: "SpanTracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: object) -> "_ActiveSpan":
        """Attach attributes mid-span (e.g. an outcome)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack
        self.parent_id = stack[-1].span_id if stack else None
        self.depth = len(stack)
        tracer._next_id += 1
        self.span_id = tracer._next_id
        self.t0 = float(tracer._clock())
        stack.append(self)
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        tracer = self._tracer
        popped = tracer._stack.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span nesting violated: exiting {self.name!r} "
                f"but {popped.name!r} is innermost"
            )
        tracer.spans.append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                depth=self.depth,
                t0=self.t0,
                t1=float(tracer._clock()),
                wall=wall,
                attrs=self.attrs,
            )
        )
        return False


class SpanTracer:
    """Collects nested spans; one instance per run."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.spans: List[SpanRecord] = []
        self._stack: List[_ActiveSpan] = []
        self._next_id = 0

    @property
    def enabled(self) -> bool:
        return True

    @property
    def active_depth(self) -> int:
        return len(self._stack)

    def span(self, name: str, **attrs: object) -> _ActiveSpan:
        """A context manager timing one synchronous region."""
        return _ActiveSpan(self, name, attrs)


class _NullSpan:
    """Shared no-op span: every method is a constant-time no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: ``span()`` returns the shared no-op span without
    allocating, and the span list is permanently empty."""

    __slots__ = ()

    #: Always-empty span collection (shared, immutable).
    spans: "tuple" = ()

    @property
    def enabled(self) -> bool:
        return False

    @property
    def active_depth(self) -> int:
        return 0

    def span(self, name: str = "", **attrs: object) -> _NullSpan:
        return _NULL_SPAN


#: Process-wide disabled tracer: the default for every instrumented
#: component, so call sites never branch on "is tracing on".
NULL_TRACER = NullTracer()
