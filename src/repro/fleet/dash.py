"""Fleet store summary: the frame ``repro fleet show`` prints.

One plain-text frame built from the store's replayed event log and
results: per-state job counts, completion progress, wall-clock
throughput and ETA (from ``completed`` event timestamps), summed
degradation counters across finished jobs, the busiest event kinds, and
the most recent per-job activity — including heartbeats, so a stalled
worker is visible as a job whose last heartbeat stops advancing.
"""

from __future__ import annotations

from typing import Dict, List

from repro.fleet.store import JOB_STATES, FleetStore
from repro.sim.monitoring import ascii_bars


def _bar(done: int, total: int, width: int = 40) -> str:
    if total <= 0:
        return "[" + " " * width + "]"
    filled = int(round(width * done / total))
    return "[" + "#" * filled + "-" * (width - filled) + f"] {done}/{total}"


def _fmt_eta(seconds: float) -> str:
    if seconds < 0:
        return "?"
    if seconds < 90:
        return f"{seconds:.0f}s"
    if seconds < 5400:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def render_dashboard(store: FleetStore, max_recent: int = 10) -> str:
    """The store's summary frame as a printable string."""
    out: List[str] = []
    states = store.job_states()
    by_state: Dict[str, int] = {name: 0 for name in JOB_STATES}
    for state in states.values():
        by_state[state] = by_state.get(state, 0) + 1
    total = len(states)
    done = by_state.get("completed", 0)

    spec = ""
    workers = None
    for event in store.events:
        if event.get("type") == "note" and event.get("note") == "run.start":
            spec = str(event.get("spec", "")) or spec
            workers = event.get("workers", workers)

    out.append("== repro fleet ==" + (f"  spec: {spec}" if spec else ""))
    out.append(_bar(done, total))
    out.append(
        "  ".join(
            f"{name}: {by_state[name]}"
            for name in JOB_STATES
            if by_state.get(name)
        )
        or "no jobs scheduled yet"
    )

    # -- throughput / ETA from completed-event wall timestamps -----------
    completed_ts = sorted(
        float(e["ts"])
        for e in store.events
        if e.get("type") == "job" and e.get("event") == "completed" and "ts" in e
    )
    if len(completed_ts) >= 2 and completed_ts[-1] > completed_ts[0]:
        rate = (len(completed_ts) - 1) / (completed_ts[-1] - completed_ts[0])
        remaining = total - done
        n_workers = int(workers) if workers else 1
        out.append(
            f"throughput: {rate * 60:.1f} jobs/min"
            + (
                f"   ETA: {_fmt_eta(remaining / rate / max(1, n_workers) * 1)}"
                if remaining and rate > 0
                else ""
            )
        )

    # -- rolling degradation / failure counters --------------------------
    degradation: Dict[str, float] = {}
    failed_rounds = 0
    for record in store.results.values():
        for key, value in (record.get("degradation") or {}).items():
            degradation[key] = degradation.get(key, 0) + value
        metrics = record.get("metrics") or {}
        failed_rounds += int(metrics.get("rounds_failed", 0) or 0)
    interesting = {k: v for k, v in sorted(degradation.items()) if v}
    if interesting or failed_rounds:
        out.append("")
        out.append("== degradation (all finished jobs) ==")
        if failed_rounds:
            out.append(f"  rounds_failed  {failed_rounds}")
        for key, value in interesting.items():
            out.append(f"  {key}  {value:g}")

    # -- busiest event kinds ---------------------------------------------
    kind_counts: Dict[str, int] = {}
    for event in store.events:
        if event.get("type") == "job":
            name = str(event.get("event"))
            kind_counts[name] = kind_counts.get(name, 0) + 1
    if kind_counts:
        ranked = sorted(kind_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:6]
        out.append("")
        out.append("== store events ==")
        out.append(
            ascii_bars(
                [k for k, _ in ranked], [float(v) for _, v in ranked]
            )
        )

    # -- recent activity --------------------------------------------------
    recent = [e for e in store.events if e.get("type") == "job"][-max_recent:]
    if recent:
        out.append("")
        out.append(f"== recent activity (last {len(recent)} events) ==")
        for event in recent:
            extra = ""
            if event.get("event") == "failed":
                extra = f"  {event.get('error', '')}"
            elif event.get("event") == "resumable":
                extra = f"  ({event.get('reason', '')})"
            out.append(
                f"  {event.get('event'):<10} {event.get('job_id')}"
                f"  attempt={event.get('attempt', 1)}{extra}"
            )
    return "\n".join(out)
