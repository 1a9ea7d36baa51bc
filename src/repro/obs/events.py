"""Structured run events and the JSONL trace format.

Event taxonomy (``kind`` is ``"<subsystem>.<verb>"``; the subsystem is
the part before the first dot):

========================  =====================================================
kind                      emitted when
========================  =====================================================
``path.form``             a round's path was established (builder success)
``path.reform``           a formation attempt dead-ended and was restarted
``path.fail``             a round exhausted every formation attempt
``hop.forward``           one forwarding instance (sender -> receiver)
``probe.sweep``           one prober period finished (aggregate counts)
``probe.timeout``         a live neighbour was declared dead on timeouts
``probe.retry``           a timed-out probe was re-sent
``churn.join``            a node (re)joined the overlay
``churn.leave``           a node went offline for an off-time
``churn.depart``          a node left permanently
``fault.drop``            a transport message was injected-dropped
``fault.delay``           a transport message was injected-delayed
``fault.hop_loss``        a path-formation hop was lost in transit
``fault.crash``           a freshly selected forwarder was crashed
``fault.probe_timeout``   a probe attempt was timed out by injection
``bank.denial``           a bank/escrow operation hit an outage window
``escrow.deposit``        bearer tokens funded a series escrow
``escrow.release``        a series escrow paid out its validated settlement
``escrow.abort``          an opened escrow was cancelled (everything refunded)
``settle.series``         a series settlement completed end-to-end
``settle.defer``          a settlement was postponed past a bank outage
``settle.fail``           a settlement was abandoned after its retry budget
========================  =====================================================

Every event carries the simulation time ``t`` (stamped by the bus's
clock at emission), a monotonically increasing sequence number, and —
where meaningful — the series ``cid``, round index and node id.  Under
cid rotation (``repro.core.defenses.CidRotator``) path/hop events carry
the *wire* identifiers, i.e. exactly what an on-path observer sees.

The JSONL trace is one JSON object per line: a ``meta`` header, then
events in sequence order, then completed spans.  :class:`RunTrace` is
the in-memory form with the round-trip (:meth:`RunTrace.write_jsonl` /
:meth:`RunTrace.read_jsonl`) and the reconstruction helpers the
``obs summarize`` report is built from.
"""

from __future__ import annotations

import gzip
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

from repro.obs.tracing import SpanRecord

#: Bumped whenever the line schema changes incompatibly.
TRACE_FORMAT_VERSION = 1

#: Schema stamp written into the JSONL meta header.  Readers accept
#: stamped and legacy (un-stamped) traces; an *unknown* stamp warns but
#: still parses the known line types (forward compatibility — newer
#: writers may add fields/kinds this reader ignores).
TRACE_SCHEMA = "repro-obs/trace-v1"

_GZIP_MAGIC = b"\x1f\x8b"


def _json_default(obj):
    """Coerce non-JSON scalars (numpy ints/floats, sets) conservatively."""
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    for cast in (int, float):
        try:
            return cast(obj)
        except (TypeError, ValueError):
            continue
    return str(obj)


@dataclass(frozen=True)
class ObsEvent:
    """One structured run event (immutable)."""

    seq: int
    t: float
    kind: str
    cid: Optional[int] = None
    round_index: Optional[int] = None
    node: Optional[int] = None
    data: Mapping[str, object] = field(default_factory=dict)

    @property
    def subsystem(self) -> str:
        """The taxonomy prefix: ``"path.form"`` -> ``"path"``."""
        return self.kind.split(".", 1)[0]

    def to_json_obj(self) -> Dict[str, object]:
        obj: Dict[str, object] = {
            "type": "event",
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
        }
        if self.cid is not None:
            obj["cid"] = self.cid
        if self.round_index is not None:
            obj["round"] = self.round_index
        if self.node is not None:
            obj["node"] = self.node
        if self.data:
            obj["data"] = dict(self.data)
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, object]) -> "ObsEvent":
        return cls(
            seq=int(obj["seq"]),
            t=float(obj["t"]),
            kind=str(obj["kind"]),
            cid=obj.get("cid"),
            round_index=obj.get("round"),
            node=obj.get("node"),
            data=dict(obj.get("data", {})),
        )


class EventBus:
    """Append-only structured event sink.

    ``clock`` supplies the simulation time stamped on each event (wire it
    to ``lambda: env.now``); without one, events are stamped ``0.0``.
    Subscribers observe every event as it is emitted (streaming export);
    the full list stays available as :attr:`events`.

    The bus never draws randomness and never raises on emission — it is
    safe to call from any hot path, though the chatty channels
    (``hop.forward``) are usually gated by the caller when disabled.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.events: List[ObsEvent] = []
        self._subscribers: List[Callable[[ObsEvent], None]] = []

    def __len__(self) -> int:
        return len(self.events)

    def subscribe(self, fn: Callable[[ObsEvent], None]) -> None:
        self._subscribers.append(fn)

    def emit(
        self,
        kind: str,
        *,
        cid: Optional[int] = None,
        round_index: Optional[int] = None,
        node: Optional[int] = None,
        **data: object,
    ) -> ObsEvent:
        """Record one event, stamped with the bus clock's current time."""
        event = ObsEvent(
            seq=len(self.events),
            t=float(self._clock()),
            kind=kind,
            cid=cid,
            round_index=round_index,
            node=node,
            data=data,
        )
        self.events.append(event)
        for fn in self._subscribers:
            fn(event)
        return event

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts


@dataclass
class RunTrace:
    """Frozen per-run trace: meta header + events + completed spans.

    This is what ``ScenarioResult.trace`` holds and what the JSONL file
    round-trips through.  It is plain data (picklable, no callables), so
    traces survive the process-pool replicate path unchanged.
    """

    meta: Dict[str, object] = field(default_factory=dict)
    events: List[ObsEvent] = field(default_factory=list)
    spans: List[SpanRecord] = field(default_factory=list)

    # -- export / import -------------------------------------------------
    def write_jsonl(self, path) -> int:
        """Write the trace as JSON Lines; returns the number of lines.

        A path ending in ``.gz`` is gzip-compressed transparently (and
        :meth:`read_jsonl` detects compression by content, not name).
        """
        lines = [
            json.dumps(
                {
                    "type": "meta",
                    "schema": TRACE_SCHEMA,
                    "version": TRACE_FORMAT_VERSION,
                    **self.meta,
                },
                default=_json_default,
            )
        ]
        lines.extend(
            json.dumps(e.to_json_obj(), default=_json_default)
            for e in self.events
        )
        lines.extend(
            json.dumps(s.to_json_obj(), default=_json_default)
            for s in self.spans
        )
        text = "\n".join(lines) + "\n"
        if str(path).endswith(".gz"):
            with gzip.open(path, "wt", encoding="utf-8") as fh:
                fh.write(text)
        else:
            Path(path).write_text(text)
        return len(lines)

    @classmethod
    def read_jsonl(cls, path) -> "RunTrace":
        """Parse a trace written by :meth:`write_jsonl`.

        Accepts plain or gzip-compressed files (detected by the gzip
        magic bytes, so ``.jsonl.gz`` artifacts need no special flag).
        Forward compatibility: an unknown schema stamp or unknown line
        type warns and is skipped rather than raising, so traces written
        by a newer ``repro.obs`` still load their known parts.
        """
        raw = Path(path).read_bytes()
        if raw[:2] == _GZIP_MAGIC:
            raw = gzip.decompress(raw)
        trace = cls()
        for line_no, line in enumerate(raw.decode("utf-8").splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from None
            kind = obj.get("type")
            if kind == "meta":
                schema = obj.get("schema")
                if schema is not None and schema != TRACE_SCHEMA:
                    warnings.warn(
                        f"{path}: trace schema {schema!r} is newer than "
                        f"{TRACE_SCHEMA!r}; reading known fields only",
                        stacklevel=2,
                    )
                meta = dict(obj)
                meta.pop("type", None)
                meta.pop("schema", None)
                meta.pop("version", None)
                trace.meta.update(meta)
            elif kind == "event":
                trace.events.append(ObsEvent.from_json_obj(obj))
            elif kind == "span":
                trace.spans.append(SpanRecord.from_json_obj(obj))
            else:
                warnings.warn(
                    f"{path}:{line_no}: unknown line type {kind!r} skipped "
                    "(written by a newer repro.obs?)",
                    stacklevel=2,
                )
        return trace

    # -- reconstruction helpers -----------------------------------------
    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    def counts_by_subsystem(self) -> Dict[str, Dict[str, int]]:
        """``{subsystem: {kind: count}}`` in first-seen order."""
        out: Dict[str, Dict[str, int]] = {}
        for e in self.events:
            out.setdefault(e.subsystem, {})
            out[e.subsystem][e.kind] = out[e.subsystem].get(e.kind, 0) + 1
        return out

    def series_timeline(self) -> Dict[int, List[ObsEvent]]:
        """Per-series round outcomes: ``cid -> [path.form/path.fail ...]``
        in emission order (the per-series round timeline)."""
        timeline: Dict[int, List[ObsEvent]] = {}
        for e in self.events:
            if e.kind in ("path.form", "path.fail") and e.cid is not None:
                timeline.setdefault(int(e.cid), []).append(e)
        return timeline

    def span_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name aggregates: count, cumulative wall seconds,
        cumulative sim minutes."""
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            agg = out.setdefault(
                s.name, {"count": 0.0, "wall": 0.0, "sim": 0.0}
            )
            agg["count"] += 1
            agg["wall"] += s.wall
            agg["sim"] += s.t1 - s.t0
        return out

    def time_range(self) -> "tuple[float, float]":
        """(first, last) simulation timestamp across events and spans."""
        times = [e.t for e in self.events]
        times.extend(s.t0 for s in self.spans)
        times.extend(s.t1 for s in self.spans)
        if not times:
            return (0.0, 0.0)
        return (min(times), max(times))
