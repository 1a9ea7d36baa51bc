"""Process-pool sweep executor: resumable, heartbeat-ed, crash-tolerant.

Scheduling reuses the harness's pool idiom (``REPRO_JOBS`` resolved via
:func:`repro.experiments.runner.default_n_jobs`; one
``ProcessPoolExecutor``, at most ``n_jobs`` jobs in flight).  The
:class:`~repro.fleet.store.FleetStore` is the only coordination state:

- jobs whose id is already ``completed`` in the store are *skipped*
  (the content-addressed resume contract — see ``repro.fleet.spec``);
- every submission appends ``started``; while a job runs the parent
  appends ``heartbeat`` events on a wall-clock cadence, so
  ``repro fleet show`` can distinguish "slow" from "dead";
- a worker crash (the future raises, or the pool itself breaks) costs
  one attempt; jobs retry up to ``retry.max_retries`` times with the
  capped-backoff schedule of :class:`repro.sim.faults.RetryPolicy`
  before a ``failed`` event is written;
- SIGINT drains gracefully: no new submissions, in-flight jobs run to
  completion and record their results, never-started jobs are marked
  ``resumable``.  A second SIGINT falls through to the default handler
  (hard kill) — the store's append-only logs tolerate that too.

``max_jobs`` bounds how many jobs *this invocation* completes (the
deterministic interrupt used by the CI smoke lane and the resume
tests); the cutoff takes the same ``resumable`` path as SIGINT.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.experiments.runner import default_n_jobs
from repro.fleet.spec import FleetJob, SweepSpec, config_from_dict
from repro.fleet.store import FleetStore
from repro.sim.faults import RetryPolicy

#: Conservative default retry budget for crashed workers: a sweep job is
#: deterministic, so a second identical crash usually means the config
#: itself is broken — burn the budget fast and mark the job failed.
DEFAULT_RETRY = RetryPolicy(max_retries=2, base_delay=0.1, max_delay=2.0, jitter=0.0)


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
    """SIGINT latch; restores the previous handler on exit."""

    def __init__(self, install: bool):
        self.tripped = False
        self._install = install and threading.current_thread() is threading.main_thread()
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


def run_fleet(
    spec: Union[SweepSpec, Sequence[FleetJob]],
    store: FleetStore,
    n_jobs: Optional[int] = None,
    max_jobs: Optional[int] = None,
    heartbeat: float = 5.0,
    retry: RetryPolicy = DEFAULT_RETRY,
    worker: Optional[Callable[[Mapping[str, object]], Dict[str, object]]] = None,
    install_signal_handler: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FleetRunOutcome:
    """Execute a sweep against a store, resuming completed work.

    ``worker`` defaults to :func:`execute_job`; tests substitute
    module-level fakes (it must stay picklable for the pool path).
    """
    jobs = list(spec.expand() if isinstance(spec, SweepSpec) else spec)
    if n_jobs is None:
        n_jobs = default_n_jobs()
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

    with _InterruptFlag(install_signal_handler) as interrupt:
        if n_jobs == 1:
            _run_serial(pending, store, worker, retry, max_jobs, interrupt, outcome, say)
        else:
            _run_pool(
                pending, store, worker, retry, n_jobs, max_jobs, heartbeat,
                interrupt, outcome, say,
            )
        outcome.interrupted = interrupt.tripped or (
            max_jobs is not None and bool(outcome.resumable)
        )

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


def _attempt_budget(retry: RetryPolicy) -> int:
    return retry.max_retries + 1


def _record_completion(
    store: FleetStore,
    job: FleetJob,
    record: Dict[str, object],
    attempt: int,
    outcome: FleetRunOutcome,
    say: Callable[[str], None],
) -> None:
    record.setdefault("attempt", attempt)
    store.append_result(record)
    store.append_event("completed", job.job_id, attempt=attempt)
    outcome.completed.append(job.job_id)
    say(f"[fleet] done {job.job_id}  {_axes_brief(job)}")


def _record_failure(
    store: FleetStore,
    job: FleetJob,
    error: BaseException,
    attempt: int,
    outcome: FleetRunOutcome,
    say: Callable[[str], None],
) -> None:
    store.append_event(
        "failed", job.job_id, attempt=attempt, error=repr(error)
    )
    outcome.failed.append(job.job_id)
    say(f"[fleet] FAILED {job.job_id} after {attempt} attempts: {error!r}")


def _mark_resumable(
    store: FleetStore,
    job: FleetJob,
    outcome: FleetRunOutcome,
    reason: str,
) -> None:
    store.append_event("resumable", job.job_id, reason=reason)
    outcome.resumable.append(job.job_id)


def _axes_brief(job: FleetJob) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(job.axes.items()))


def _run_serial(
    pending: List[FleetJob],
    store: FleetStore,
    worker: Callable[[Mapping[str, object]], Dict[str, object]],
    retry: RetryPolicy,
    max_jobs: Optional[int],
    interrupt: _InterruptFlag,
    outcome: FleetRunOutcome,
    say: Callable[[str], None],
) -> None:
    done_this_run = 0
    for idx, job in enumerate(pending):
        cutoff = max_jobs is not None and done_this_run >= max_jobs
        if interrupt.tripped or cutoff:
            reason = "sigint" if interrupt.tripped else "max-jobs"
            for leftover in pending[idx:]:
                _mark_resumable(store, leftover, outcome, reason)
            return
        for attempt in range(1, _attempt_budget(retry) + 1):
            store.append_event("started", job.job_id, attempt=attempt)
            try:
                record = worker(job.payload())
            except BaseException as exc:  # noqa: B036 - worker crash boundary
                if isinstance(exc, KeyboardInterrupt):
                    _mark_resumable(store, job, outcome, "sigint")
                    interrupt.tripped = True
                    break
                if attempt >= _attempt_budget(retry):
                    _record_failure(store, job, exc, attempt, outcome, say)
                    break
                store.append_event(
                    "resumable", job.job_id, reason="retry", error=repr(exc)
                )
                time.sleep(retry.delay(attempt - 1))
            else:
                _record_completion(store, job, record, attempt, outcome, say)
                done_this_run += 1
                break


def _run_pool(
    pending: List[FleetJob],
    store: FleetStore,
    worker: Callable[[Mapping[str, object]], Dict[str, object]],
    retry: RetryPolicy,
    n_jobs: int,
    max_jobs: Optional[int],
    heartbeat: float,
    interrupt: _InterruptFlag,
    outcome: FleetRunOutcome,
    say: Callable[[str], None],
) -> None:
    queue: List[FleetJob] = list(pending)
    attempts: Dict[str, int] = {}
    inflight: Dict[Future, FleetJob] = {}
    done_this_run = 0
    last_beat = time.monotonic()
    pool = ProcessPoolExecutor(max_workers=n_jobs)
    try:
        while queue or inflight:
            cutoff = max_jobs is not None and done_this_run >= max_jobs
            if interrupt.tripped or cutoff:
                reason = "sigint" if interrupt.tripped else "max-jobs"
                for job in queue:
                    _mark_resumable(store, job, outcome, reason)
                queue = []
                if not inflight:
                    break
            while queue and len(inflight) < n_jobs and not interrupt.tripped and not cutoff:
                job = queue.pop(0)
                attempt = attempts.get(job.job_id, 0) + 1
                attempts[job.job_id] = attempt
                store.append_event("started", job.job_id, attempt=attempt)
                inflight[pool.submit(worker, job.payload())] = job
            if not inflight:
                continue
            finished, _running = wait(
                inflight, timeout=heartbeat, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            if now - last_beat >= heartbeat:
                for future, job in inflight.items():
                    if not future.done():
                        store.append_event(
                            "heartbeat", job.job_id,
                            attempt=attempts[job.job_id],
                        )
                last_beat = now
            pool_broken = False
            for future in finished:
                job = inflight.pop(future)
                attempt = attempts[job.job_id]
                try:
                    record = future.result()
                except BaseException as exc:  # noqa: B036 - worker crash boundary
                    if isinstance(exc, BrokenProcessPool):
                        pool_broken = True
                    if attempt >= _attempt_budget(retry):
                        _record_failure(store, job, exc, attempt, outcome, say)
                    else:
                        store.append_event(
                            "resumable", job.job_id,
                            reason="retry", error=repr(exc),
                        )
                        time.sleep(retry.delay(attempt - 1))
                        queue.append(job)
                else:
                    _record_completion(store, job, record, attempt, outcome, say)
                    done_this_run += 1
            if pool_broken:
                # A hard worker crash poisons every sibling future; pull
                # the survivors back onto the queue (their attempt count
                # stands) and start a fresh pool.
                for future, job in list(inflight.items()):
                    inflight.pop(future)
                    if attempts[job.job_id] >= _attempt_budget(retry):
                        _record_failure(
                            store, job,
                            BrokenProcessPool("worker pool crashed"),
                            attempts[job.job_id], outcome, say,
                        )
                    else:
                        store.append_event(
                            "resumable", job.job_id, reason="pool-crash"
                        )
                        queue.append(job)
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=n_jobs)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
