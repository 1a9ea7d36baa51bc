"""Resumable sweep executor: a spec's pending jobs, run in batches.

The :class:`~repro.fleet.store.FleetStore` is the only coordination
state:

- jobs whose id is already ``completed`` in the store are *skipped*
  (the content-addressed resume contract — see ``repro.fleet.spec``);
- the pending jobs run in batches of ``n_jobs`` through
  :func:`repro.experiments.runner.run_jobs`, the project's one process
  pool (``n_jobs`` from ``--jobs``, else ``REPRO_JOBS``, else 1, which
  runs in-process).  A batch waits for its slowest job.  Each job gets
  a ``started`` event, then ``completed`` or ``failed``: a job whose
  worker raises fails, and a hard worker crash that breaks the pool
  fails its whole batch.  A failed job is not retried in the same run;
  it stays pending, so the next ``fleet run`` runs it again;
- SIGINT drains gracefully: the running batch completes and records
  its results, and the jobs not yet started are marked ``resumable``.
  A second SIGINT falls through to the default handler (hard kill) —
  the store's append-only logs tolerate that too.

``max_jobs`` bounds how many jobs *this invocation* completes (the
deterministic interrupt used by the CI smoke lane and the resume
tests): no batch is wider than the completions still allowed, and the
cutoff takes the same ``resumable`` path as SIGINT.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.runner import default_n_jobs, run_jobs
from repro.fleet.spec import FleetJob, SweepSpec, config_from_dict
from repro.fleet.store import FleetStore

Worker = Callable[[Mapping[str, object]], Dict[str, object]]


def execute_job(payload: Mapping[str, object]) -> Dict[str, object]:
    """Run one fleet job (pool worker entry point).

    Rebuilds the :class:`ExperimentConfig` from the shipped payload,
    runs the scenario, and returns the JSON-safe result record the
    store appends.  Deterministic fields (``metrics``, ``degradation``)
    depend only on the config; ``timing`` carries wall-clock facts and
    is informational.
    """
    from repro.experiments.scenario import run_scenario

    config = config_from_dict(payload["config"])
    t0 = time.perf_counter()
    result = run_scenario(config)
    wall = time.perf_counter() - t0
    rounds_completed = sum(s.rounds_completed for s in result.series_stats)
    rounds_failed = sum(s.failed_rounds for s in result.series_stats)
    sim_duration = float(result.sim_duration)
    record: Dict[str, object] = {
        "job_id": payload["job_id"],
        "kind": "scenario",
        "spec": payload.get("spec", ""),
        "axes": dict(payload.get("axes", {})),
        "config": dict(payload["config"]),
        "metrics": {
            "pi_mean": result.average_forwarder_set_size(),
            "path_quality": result.average_path_quality(),
            "good_payoff_mean": result.average_good_series_payoff(),
            "rounds_completed": rounds_completed,
            "rounds_failed": rounds_failed,
            "reformations": result.total_reformations,
            "sim_duration": sim_duration,
            #: Deterministic throughput: completed rounds per simulated
            #: minute (wall-clock throughput lives under ``timing``).
            "throughput": (
                rounds_completed / sim_duration if sim_duration else 0.0
            ),
        },
        "degradation": dict(result.degradation),
        "timing": {
            "wall_seconds": wall,
            "phase_timings": dict(result.phase_timings),
        },
    }
    return record


@dataclass
class FleetRunOutcome:
    """What one ``fleet run`` invocation did."""

    total: int
    completed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    resumable: List[str] = field(default_factory=list)
    interrupted: bool = False

    @property
    def converged(self) -> bool:
        """Every job in the spec has a completed result."""
        return len(self.completed) + len(self.skipped) == self.total

    def summary(self) -> str:
        bits = [
            f"jobs: {self.total}",
            f"completed: {len(self.completed)}",
            f"skipped (already done): {len(self.skipped)}",
        ]
        if self.failed:
            bits.append(f"failed: {len(self.failed)}")
        if self.resumable:
            bits.append(f"resumable: {len(self.resumable)}")
        if self.interrupted:
            bits.append("interrupted — re-run to resume")
        return "  ".join(bits)


class _InterruptFlag:
    """SIGINT latch (main thread only); restores the previous handler on exit."""

    def __init__(self):
        self.tripped = False
        self._install = threading.current_thread() is threading.main_thread()
        self._previous = None

    def __enter__(self) -> "_InterruptFlag":
        if self._install:
            self._previous = signal.signal(signal.SIGINT, self._handle)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._install:
            signal.signal(signal.SIGINT, self._previous)
        return False

    def _handle(self, signum, frame):
        if self.tripped:
            # Second SIGINT: defer to the previous (default) behaviour.
            signal.signal(signal.SIGINT, self._previous)
            raise KeyboardInterrupt
        self.tripped = True


def _attempt(
    worker: Worker, payload: Mapping[str, object]
) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
    """Run one job: ``(record, None)``, or ``(None, repr(exc))`` when the
    worker raises, so one failing job does not take its batch down."""
    try:
        return worker(payload), None
    except Exception as exc:
        return None, repr(exc)


def run_fleet(
    spec: Union[SweepSpec, Sequence[FleetJob]],
    store: FleetStore,
    n_jobs: Optional[int] = None,
    max_jobs: Optional[int] = None,
    worker: Optional[Worker] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FleetRunOutcome:
    """Execute a sweep against a store, resuming completed work.

    ``worker`` defaults to :func:`execute_job`; tests substitute
    module-level fakes (it must stay picklable for the pool path).
    """
    jobs = list(spec.expand() if isinstance(spec, SweepSpec) else spec)
    if n_jobs is None:
        n_jobs = default_n_jobs()
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if worker is None:
        worker = execute_job
    say = progress if progress is not None else (lambda _msg: None)

    outcome = FleetRunOutcome(total=len(jobs))
    known_states = store.job_states()
    completed_before = store.completed_job_ids()
    pending: List[FleetJob] = []
    for job in jobs:
        if job.job_id in completed_before:
            outcome.skipped.append(job.job_id)
            continue
        if job.job_id not in known_states:
            store.append_event("scheduled", job.job_id, axes=dict(job.axes))
        pending.append(job)
    spec_name = jobs[0].spec_name if jobs else ""
    store.append_note(
        "run.start",
        spec=spec_name,
        n_jobs=len(jobs),
        n_pending=len(pending),
        n_skipped=len(outcome.skipped),
        workers=n_jobs,
    )
    say(
        f"[fleet] {spec_name or 'sweep'}: {len(jobs)} jobs, "
        f"{len(outcome.skipped)} already complete, {len(pending)} to run "
        f"({n_jobs} worker{'s' if n_jobs != 1 else ''})"
    )

    budget = len(pending) if max_jobs is None else max_jobs
    with _InterruptFlag() as interrupt:
        while pending and not interrupt.tripped and len(outcome.completed) < budget:
            width = min(n_jobs, budget - len(outcome.completed))
            batch, pending = pending[:width], pending[width:]
            for job in batch:
                store.append_event("started", job.job_id)
            try:
                results = run_jobs(
                    partial(_attempt, worker), [job.payload() for job in batch], n_jobs
                )
            except Exception as exc:  # e.g. BrokenProcessPool: a worker died hard
                results = [(None, repr(exc))] * len(batch)
            for job, (record, error) in zip(batch, results):
                if error is None:
                    store.append_result(record)
                    store.append_event("completed", job.job_id)
                    outcome.completed.append(job.job_id)
                    say(f"[fleet] done {job.job_id}  {_axes_brief(job)}")
                else:
                    store.append_event("failed", job.job_id, error=error)
                    outcome.failed.append(job.job_id)
                    say(f"[fleet] FAILED {job.job_id}: {error}")
        reason = "sigint" if interrupt.tripped else "max-jobs"
        for job in pending:
            store.append_event("resumable", job.job_id, reason=reason)
            outcome.resumable.append(job.job_id)
        outcome.interrupted = interrupt.tripped or bool(outcome.resumable)

    store.append_note(
        "run.finish",
        spec=spec_name,
        completed=len(outcome.completed),
        failed=len(outcome.failed),
        resumable=len(outcome.resumable),
        interrupted=outcome.interrupted,
    )
    store.write_index()
    say(f"[fleet] {outcome.summary()}")
    return outcome


def _axes_brief(job: FleetJob) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(job.axes.items()))
