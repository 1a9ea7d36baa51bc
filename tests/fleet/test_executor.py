"""Fleet executor: resume semantics, batches on the pool, acceptance.

Workers are module-level so the pool can pickle them.
"""

import json
import os

import pytest

from repro.fleet.executor import execute_job, run_fleet
from repro.fleet.spec import SweepSpec
from repro.fleet.store import FleetStore

TINY_BASE = {
    "n_nodes": 16,
    "n_pairs": 4,
    "total_transmissions": 24,
    "use_bank": False,
}


def tiny_spec(seeds=(0, 1), strategies=("random", "utility-I")):
    return SweepSpec(
        name="t",
        base=TINY_BASE,
        axes={"strategy": list(strategies)},
        seeds=seeds,
        backends=("numpy",),
    )


def fake_worker(payload):
    """Deterministic stand-in for execute_job (module-level: picklable)."""
    seed = payload["config"]["seed"]
    return {
        "job_id": payload["job_id"],
        "kind": "scenario",
        "spec": payload["spec"],
        "axes": dict(payload["axes"]),
        "config": dict(payload["config"]),
        "metrics": {"pi_mean": 2.0 + seed, "throughput": 1.0},
        "degradation": {},
        "timing": {"wall_seconds": 0.0},
    }


def pid_worker(payload):
    """fake_worker that also records the process that ran the job."""
    record = fake_worker(payload)
    record["timing"]["pid"] = os.getpid()
    return record


def crashing_worker(payload):
    raise RuntimeError("boom")


def hard_crash_worker(payload):
    """Kills its pool worker outright, which breaks the whole pool."""
    os._exit(1)


class TestSerial:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_all_jobs_complete(self, tmp_path, n_jobs):
        store = FleetStore(tmp_path / "s")
        outcome = run_fleet(tiny_spec(), store, n_jobs=n_jobs, worker=fake_worker)
        assert outcome.converged and not outcome.interrupted
        assert len(outcome.completed) == 4
        assert set(store.completed_job_ids()) == set(outcome.completed)
        assert all(n == 1 for n in store.started_counts().values())

    def test_second_run_skips_everything(self, tmp_path):
        spec = tiny_spec()
        store = FleetStore(tmp_path / "s")
        run_fleet(spec, store, n_jobs=1, worker=fake_worker)
        again = run_fleet(
            spec, FleetStore(tmp_path / "s"), n_jobs=1, worker=fake_worker
        )
        assert again.converged
        assert len(again.skipped) == 4 and not again.completed

    def test_raising_job_fails_once_and_rerun_converges(self, tmp_path):
        spec = tiny_spec(seeds=(0,), strategies=("random",))
        store = FleetStore(tmp_path / "s")
        outcome = run_fleet(spec, store, n_jobs=1, worker=crashing_worker)
        assert outcome.failed and not outcome.converged
        (job_id,) = outcome.failed
        assert store.job_states()[job_id] == "failed"
        assert store.started_counts()[job_id] == 1
        failed = [e for e in store.events if e.get("event") == "failed"]
        assert [e["error"] for e in failed] == ["RuntimeError('boom')"]

        rerun = run_fleet(spec, FleetStore(tmp_path / "s"), n_jobs=1, worker=fake_worker)
        assert rerun.converged and rerun.completed == [job_id]

    def test_max_jobs_marks_rest_resumable(self, tmp_path):
        store = FleetStore(tmp_path / "s")
        outcome = run_fleet(
            tiny_spec(), store, n_jobs=1, max_jobs=1, worker=fake_worker
        )
        assert outcome.interrupted and not outcome.converged
        assert len(outcome.completed) == 1
        assert len(outcome.resumable) == 3
        states = store.job_states()
        assert sorted(states.values()) == [
            "completed",
            "resumable",
            "resumable",
            "resumable",
        ]


class TestResume:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_resume_runs_exactly_the_remaining_jobs(self, tmp_path, n_jobs):
        spec = tiny_spec()
        store = FleetStore(tmp_path / "s")
        first = run_fleet(
            spec, store, n_jobs=n_jobs, max_jobs=2, worker=fake_worker
        )
        assert len(first.completed) == 2

        resumed_store = FleetStore(tmp_path / "s")
        second = run_fleet(
            spec, resumed_store, n_jobs=n_jobs, worker=fake_worker
        )
        assert second.converged
        assert sorted(second.skipped) == sorted(first.completed)
        assert sorted(second.completed) == sorted(first.resumable)
        # Re-execution audit: no job id ever started twice.
        assert all(n == 1 for n in resumed_store.started_counts().values())


class TestPool:
    def test_pool_completes_all_jobs(self, tmp_path):
        store = FleetStore(tmp_path / "s")
        outcome = run_fleet(tiny_spec(), store, n_jobs=2, worker=pid_worker)
        assert outcome.converged
        assert len(store.completed_job_ids()) == 4
        pids = {r["timing"]["pid"] for r in store.results.values()}
        assert os.getpid() not in pids

    def test_max_jobs_is_exact_on_the_pool(self, tmp_path):
        store = FleetStore(tmp_path / "s")
        outcome = run_fleet(
            tiny_spec(), store, n_jobs=2, max_jobs=1, worker=fake_worker
        )
        assert outcome.interrupted and not outcome.converged
        assert len(outcome.completed) == 1
        assert len(outcome.resumable) == 3
        assert sum(store.started_counts().values()) == 1

    def test_hard_crash_fails_the_batch_and_rerun_converges(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        store = FleetStore(tmp_path / "s")
        outcome = run_fleet(spec, store, n_jobs=2, worker=hard_crash_worker)
        assert sorted(outcome.failed) == sorted(job.job_id for job in spec.expand())
        assert not outcome.completed and not outcome.converged
        failed = [e for e in store.events if e.get("event") == "failed"]
        assert len(failed) == 2
        assert all("BrokenProcessPool" in e["error"] for e in failed)

        resumed = FleetStore(tmp_path / "s")
        rerun = run_fleet(spec, resumed, n_jobs=2, worker=fake_worker)
        assert rerun.converged and sorted(rerun.completed) == sorted(outcome.failed)
        assert all(n == 2 for n in resumed.started_counts().values())


class TestAcceptance:
    def test_interrupted_plus_resumed_equals_fresh(self, tmp_path):
        """The ISSUE acceptance bar: a killed-and-resumed sweep's
        aggregates are bit-identical to an uninterrupted run's."""
        spec = tiny_spec()

        interrupted = FleetStore(tmp_path / "interrupted")
        first = run_fleet(spec, interrupted, n_jobs=1, max_jobs=2)
        assert first.interrupted and len(first.completed) == 2
        resumed = FleetStore(tmp_path / "interrupted")
        second = run_fleet(spec, resumed, n_jobs=1)
        assert second.converged
        assert all(n == 1 for n in resumed.started_counts().values())

        fresh = FleetStore(tmp_path / "fresh")
        assert run_fleet(spec, fresh, n_jobs=1).converged

        for select in ("metrics.pi_mean", "metrics.throughput"):
            got = resumed.query(group_by=["axes.strategy"], select=select)
            want = fresh.query(group_by=["axes.strategy"], select=select)
            assert json.dumps(got, sort_keys=True) == json.dumps(
                want, sort_keys=True
            )

    def test_execute_job_record_shape(self):
        spec = tiny_spec(seeds=(0,), strategies=("random",))
        (job,) = spec.expand()
        record = execute_job(job.payload())
        assert record["job_id"] == job.job_id
        assert record["kind"] == "scenario"
        metrics = record["metrics"]
        assert metrics["pi_mean"] > 0
        assert metrics["rounds_completed"] > 0
        assert metrics["throughput"] == (
            metrics["rounds_completed"] / metrics["sim_duration"]
        )
        assert record["timing"]["wall_seconds"] >= 0
