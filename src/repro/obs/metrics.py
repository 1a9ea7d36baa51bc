"""Metrics registry: named counters and gauges with keyword labels.

Naming follows the Prometheus conventions: instrument names match
``[a-zA-Z_:][a-zA-Z0-9_:]*`` and are prefixed ``repro_``; counters end
in ``_total``; label names match ``[a-zA-Z_][a-zA-Z0-9_]*``.  Labels are
keyword arguments of the update and read calls:
``registry.counter("x_total", help).inc(kind="path.form")``; the call
without labels addresses the label-less series.

The registry holds plain data only — values and help strings, never
callables — so a populated :class:`MetricsRegistry` pickles cleanly
across the ``REPRO_JOBS`` process-pool replicate path.  The process-wide
``PERF`` counters and the per-run ``DegradationCounters`` keep their
attribute-increment hot-path APIs;
:meth:`MetricsRegistry.register_counters` materialises a snapshot of
either into registered instruments at collection time.

Exporters: :meth:`MetricsRegistry.to_prometheus` (text exposition
format 0.0.4) and :meth:`MetricsRegistry.to_json`.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Mapping, Optional, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Schema stamp on the JSON export.
METRICS_SCHEMA = "repro-obs/metrics-v1"

#: Sorted-tuple form of a label set; () is the label-less series.
LabelKey = Tuple[Tuple[str, str], ...]


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    for key in labels:
        if not _LABEL_NAME_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Instrument:
    """Shared behaviour: a name, a help string, and one value per label set."""

    metric_type = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = _validate_name(name)
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def _samples(self) -> "List[Tuple[LabelKey, float]]":
        """(label_key, value) pairs for the text exporter."""
        return sorted(self._values.items()) or [((), 0.0)]

    def _json_obj(self) -> Dict[str, object]:
        return {
            "type": self.metric_type,
            "help": self.help,
            "values": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }


class Counter(_Instrument):
    """Monotonically non-decreasing count, optionally labelled."""

    metric_type = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Instrument):
    """A value that can go up and down, optionally labelled."""

    metric_type = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class MetricsRegistry:
    """Namespace of instruments with shared exporters.

    ``counter`` / ``gauge`` are get-or-create: asking for an existing
    name returns the existing instrument (a type mismatch raises).
    """

    def __init__(self):
        self._instruments: Dict[str, _Instrument] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def _get_or_create(self, cls, name: str, help: str) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.metric_type}, not {cls.metric_type}"
                )
            return existing
        instrument = cls(name, help)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    # -- snapshot absorption ----------------------------------------------
    def register_counters(
        self,
        prefix: str,
        snapshot: Mapping[str, float],
        help: str = "",
    ) -> List[Counter]:
        """Materialise a counter snapshot (e.g. ``PERF.snapshot()`` or
        ``DegradationCounters.snapshot()``) as one ``_total`` counter per
        field.  The source object keeps its attribute API — this absorbs
        its *values* into the registry at collection time."""
        created = []
        for field_name, value in snapshot.items():
            counter = self.counter(f"{prefix}_{field_name}_total", help)
            counter._values[()] = float(value)
            created.append(counter)
        return created

    def register_gauges(
        self,
        prefix: str,
        snapshot: Mapping[str, float],
        help: str = "",
    ) -> List[Gauge]:
        """Materialise a mapping of scalar readings as gauges."""
        created = []
        for field_name, value in snapshot.items():
            gauge = self.gauge(f"{prefix}_{field_name}", help)
            gauge.set(float(value))
            created.append(gauge)
        return created

    # -- exporters --------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4), newline-terminated."""
        lines: List[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.metric_type}")
            for key, value in instrument._samples():
                lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(
            {
                "schema": METRICS_SCHEMA,
                "metrics": {
                    name: self._instruments[name]._json_obj()
                    for name in self.names()
                },
            },
            indent=indent,
            sort_keys=True,
        )
