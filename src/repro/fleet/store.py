"""Append-only on-disk results store (``repro-fleet/store-v1``).

Layout of a store directory::

    store/
      events.jsonl    # append-only job lifecycle log (source of truth)
      results.jsonl   # append-only per-job result records
      index.json      # compact rebuilt index (a cache, atomically written)

The two JSONL files are the durable artifact: every line is appended
and flushed independently, so a killed run loses at most a partial
trailing line (tolerated and skipped with a warning on replay — the
same forward-compat posture as the obs readers).  ``index.json`` is a
derived convenience for external tools; it is rebuilt
from the logs on every open and rewritten atomically, never read back
as authority.

Job lifecycle events (``type: "job"``): ``scheduled`` → ``started`` →
(``heartbeat``...) → ``completed`` | ``failed`` | ``resumable``.  A
``resumable`` event marks a job whose execution was interrupted
(SIGINT drain, ``--max-jobs`` cutoff, worker crash before the retry
budget) — it stays pending and a later ``fleet run`` picks it up.

Result records (``type: "result"``) carry the job's resolved config,
sweep coordinates, deterministic metrics (forwarder-set size, path
quality, payoffs, sim-time throughput), degradation counters, phase
timings and optional trace path.  :meth:`FleetStore.query` filters,
groups and aggregates over them; aggregation sorts each group by
``job_id`` first, so results are bit-identical regardless of the order
jobs happened to complete in (interrupted-and-resumed runs aggregate
exactly like uninterrupted ones).
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

STORE_SCHEMA = "repro-fleet/store-v1"

#: Job lifecycle states derived from the event log, in precedence order.
JOB_STATES = ("scheduled", "started", "resumable", "failed", "completed")

_AGGREGATES: Dict[str, Callable[[Sequence[float]], float]] = {
    "mean": lambda xs: sum(xs) / len(xs),
    "sum": lambda xs: sum(xs),
    "min": lambda xs: min(xs),
    "max": lambda xs: max(xs),
    "count": lambda xs: float(len(xs)),
}


def _get_path(record: Mapping[str, object], dotted: str):
    """Resolve ``"config.tau"``-style dotted paths into nested dicts."""
    value: object = record
    for part in dotted.split("."):
        if not isinstance(value, Mapping) or part not in value:
            return None
        value = value[part]
    return value


class FleetStore:
    """One sweep's durable event log + results, with query access."""

    def __init__(self, path, create: bool = True):
        self.path = Path(path)
        if create:
            self.path.mkdir(parents=True, exist_ok=True)
        elif not self.path.is_dir():
            raise FileNotFoundError(f"no fleet store at {self.path}")
        self.events_path = self.path / "events.jsonl"
        self.results_path = self.path / "results.jsonl"
        self.index_path = self.path / "index.json"
        #: Replayed state: every event line, in order.
        self.events: List[Dict[str, object]] = []
        #: Replayed result records keyed by job id (last attempt wins).
        self.results: Dict[str, Dict[str, object]] = {}
        self._replay()

    # -- append side ------------------------------------------------------
    def _append(self, path: Path, obj: Mapping[str, object]) -> None:
        line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def append_event(self, event: str, job_id: str, **data: object) -> Dict[str, object]:
        """Record one job lifecycle event (flushed durably)."""
        obj: Dict[str, object] = {
            "type": "job",
            "event": event,
            "job_id": job_id,
            "ts": time.time(),
        }
        obj.update(data)
        self._append(self.events_path, obj)
        self.events.append(obj)
        return obj

    def append_note(self, note: str, **data: object) -> None:
        """Record a run-level event (spec registered, run started...)."""
        obj: Dict[str, object] = {"type": "note", "note": note, "ts": time.time()}
        obj.update(data)
        self._append(self.events_path, obj)
        self.events.append(obj)

    def append_result(self, record: Mapping[str, object]) -> None:
        obj = {"type": "result", **record}
        self._append(self.results_path, obj)
        self.results[str(obj["job_id"])] = obj

    # -- replay side ------------------------------------------------------
    def _iter_lines(self, path: Path) -> Iterable[Dict[str, object]]:
        if not path.exists():
            return
        for line_no, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        ):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                # A partial trailing line from a killed writer is
                # expected; anything else is still not worth refusing
                # the whole store for.
                warnings.warn(
                    f"{path}:{line_no}: skipping corrupt line", stacklevel=3
                )
                continue
            if not isinstance(obj, dict):
                warnings.warn(
                    f"{path}:{line_no}: skipping non-object line", stacklevel=3
                )
                continue
            yield obj

    def _replay(self) -> None:
        self.events = []
        self.results = {}
        for obj in self._iter_lines(self.events_path):
            kind = obj.get("type")
            if kind == "meta":
                schema = obj.get("schema")
                if schema is not None and schema != STORE_SCHEMA:
                    warnings.warn(
                        f"store schema {schema!r} differs from "
                        f"{STORE_SCHEMA!r}; reading known fields only",
                        stacklevel=2,
                    )
                continue
            self.events.append(obj)
        for obj in self._iter_lines(self.results_path):
            if obj.get("type") == "result" and "job_id" in obj:
                self.results[str(obj["job_id"])] = obj
        if not self.events_path.exists():
            self._append(
                self.events_path,
                {"type": "meta", "schema": STORE_SCHEMA, "created": time.time()},
            )
        if not self.results_path.exists():
            self._append(
                self.results_path,
                {"type": "meta", "schema": STORE_SCHEMA},
            )

    # -- derived state ----------------------------------------------------
    def job_states(self) -> Dict[str, str]:
        """Current state per job id, from the event log."""
        states: Dict[str, str] = {}
        for event in self.events:
            if event.get("type") != "job":
                continue
            name = event.get("event")
            if name in JOB_STATES:
                states[str(event["job_id"])] = str(name)
        return states

    def completed_job_ids(self) -> "set[str]":
        return {
            job_id
            for job_id, state in self.job_states().items()
            if state == "completed"
        }

    def started_counts(self) -> Dict[str, int]:
        """How many times each job id emitted ``started`` (re-execution
        audit: a resumed sweep must not start completed jobs again)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            if event.get("type") == "job" and event.get("event") == "started":
                job_id = str(event["job_id"])
                counts[job_id] = counts.get(job_id, 0) + 1
        return counts

    # -- query API --------------------------------------------------------
    def query(
        self,
        where: Optional[Mapping[str, object]] = None,
        group_by: Optional[Sequence[str]] = None,
        select: str = "metrics.pi_mean",
        agg: str = "mean",
    ) -> List[Dict[str, object]]:
        """Filter, group and aggregate ``scenario`` result records.

        ``where`` maps dotted record paths to required values (or
        predicates).  ``group_by`` lists dotted paths whose distinct
        value tuples form the groups; ``select`` names the numeric field
        to aggregate with ``agg`` (mean/sum/min/max/count).  Rows come
        back sorted by group key; each group's samples are sorted by
        job id before aggregation, so the result is independent of
        completion order.
        """
        if agg not in _AGGREGATES:
            raise ValueError(
                f"unknown aggregate {agg!r}; expected one of "
                f"{sorted(_AGGREGATES)}"
            )
        records = [
            r for r in self.results.values() if r.get("kind") == "scenario"
        ]
        if where:
            for path, want in where.items():
                if callable(want):
                    records = [r for r in records if want(_get_path(r, path))]
                else:
                    records = [r for r in records if _get_path(r, path) == want]
        group_fields = list(group_by or [])
        groups: Dict[tuple, List[Dict[str, object]]] = {}
        for record in records:
            key = tuple(_json_key(_get_path(record, f)) for f in group_fields)
            groups.setdefault(key, []).append(record)
        rows: List[Dict[str, object]] = []
        for key in sorted(groups, key=repr):
            members = sorted(groups[key], key=lambda r: str(r.get("job_id")))
            samples = [
                float(v)
                for v in (_get_path(r, select) for r in members)
                if v is not None
            ]
            row: Dict[str, object] = dict(zip(group_fields, key))
            row["n"] = len(samples)
            row[f"{agg}({select})"] = (
                _AGGREGATES[agg](samples) if samples else None
            )
            rows.append(row)
        return rows

    # -- compact index ----------------------------------------------------
    def write_index(self) -> Path:
        """Atomically rewrite ``index.json`` from the replayed state."""
        states = self.job_states()
        index = {
            "schema": STORE_SCHEMA,
            "jobs": {
                job_id: {
                    "state": state,
                    "has_result": job_id in self.results,
                }
                for job_id, state in sorted(states.items())
            },
            "n_results": len(self.results),
            "n_events": len(self.events),
        }
        tmp = self.index_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(index, indent=2, sort_keys=True))
        os.replace(tmp, self.index_path)
        return self.index_path


def _json_key(value: object) -> object:
    """Hashable form of a group-by value (lists/dicts via canonical JSON)."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value
