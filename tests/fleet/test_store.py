"""FleetStore: durable replay, query semantics, compact index."""

import json

import pytest

from repro.fleet.store import STORE_SCHEMA, FleetStore


def _result(job_id, strategy="random", seed=0, pi=5.0, kind="scenario"):
    return {
        "job_id": job_id,
        "kind": kind,
        "spec": "t",
        "axes": {"strategy": strategy, "seed": seed},
        "config": {"strategy": strategy, "seed": seed, "tau": 2.0},
        "metrics": {"pi_mean": pi, "throughput": pi * 2},
        "degradation": {},
    }


class TestReplay:
    def test_events_and_results_survive_reopen(self, tmp_path):
        store = FleetStore(tmp_path / "s")
        store.append_event("scheduled", "j1")
        store.append_event("started", "j1", attempt=1)
        store.append_result(_result("j1"))
        store.append_event("completed", "j1", attempt=1)

        back = FleetStore(tmp_path / "s")
        assert back.job_states() == {"j1": "completed"}
        assert back.results["j1"]["metrics"]["pi_mean"] == 5.0
        assert back.completed_job_ids() == {"j1"}

    def test_corrupt_trailing_line_tolerated(self, tmp_path):
        store = FleetStore(tmp_path / "s")
        store.append_event("scheduled", "j1")
        # Simulate a kill mid-append: a partial JSON line at the tail.
        with open(store.events_path, "a") as fh:
            fh.write('{"type": "job", "event": "star')
        with pytest.warns(UserWarning, match="corrupt line"):
            back = FleetStore(tmp_path / "s")
        assert back.job_states() == {"j1": "scheduled"}

    def test_foreign_schema_warns_not_crashes(self, tmp_path):
        store = FleetStore(tmp_path / "s")
        store.append_event("scheduled", "j1")
        lines = store.events_path.read_text().splitlines()
        lines[0] = json.dumps({"type": "meta", "schema": "repro-fleet/store-v9"})
        store.events_path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="store-v9"):
            back = FleetStore(tmp_path / "s")
        assert back.job_states() == {"j1": "scheduled"}

    def test_missing_store_requires_create(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FleetStore(tmp_path / "absent", create=False)

    def test_older_heartbeat_events_replay(self, tmp_path):
        store = FleetStore(tmp_path / "s")
        store.append_event("started", "j1", attempt=1)
        store.append_event("heartbeat", "j1", attempt=1)
        store.append_event("completed", "j1", attempt=1)
        store.append_event("started", "j2", attempt=1)
        store.append_event("heartbeat", "j2", attempt=1)

        back = FleetStore(tmp_path / "s")
        assert back.job_states() == {"j1": "completed", "j2": "started"}
        assert len(back.events) == 5

    def test_started_counts(self, tmp_path):
        store = FleetStore(tmp_path / "s")
        store.append_event("started", "j1", attempt=1)
        store.append_event("started", "j1", attempt=2)
        store.append_event("started", "j2", attempt=1)
        assert store.started_counts() == {"j1": 2, "j2": 1}


class TestQuery:
    def _store(self, tmp_path):
        store = FleetStore(tmp_path / "s")
        store.append_result(_result("a", "random", 0, 4.0))
        store.append_result(_result("b", "random", 1, 6.0))
        store.append_result(_result("c", "utility-I", 0, 3.0))
        return store

    def test_group_and_mean(self, tmp_path):
        rows = self._store(tmp_path).query(group_by=["axes.strategy"])
        assert rows == [
            {"axes.strategy": "random", "n": 2, "mean(metrics.pi_mean)": 5.0},
            {"axes.strategy": "utility-I", "n": 1, "mean(metrics.pi_mean)": 3.0},
        ]

    def test_where_filters_dotted_paths(self, tmp_path):
        rows = self._store(tmp_path).query(
            where={"config.seed": 0}, group_by=["axes.strategy"]
        )
        assert [r["n"] for r in rows] == [1, 1]

    def test_where_accepts_predicates(self, tmp_path):
        rows = self._store(tmp_path).query(
            where={"metrics.pi_mean": lambda v: v is not None and v > 3.5}
        )
        assert rows[0]["n"] == 2

    def test_aggregates(self, tmp_path):
        store = self._store(tmp_path)
        assert store.query(agg="sum")[0]["sum(metrics.pi_mean)"] == 13.0
        assert store.query(agg="min")[0]["min(metrics.pi_mean)"] == 3.0
        assert store.query(agg="max")[0]["max(metrics.pi_mean)"] == 6.0
        assert store.query(agg="count")[0]["count(metrics.pi_mean)"] == 3.0

    def test_only_scenario_records_are_queried(self, tmp_path):
        # Stores written by older versions may still hold ``bench``
        # records; they never enter an aggregate.
        store = self._store(tmp_path)
        before = store.query(group_by=["axes.strategy"])
        store.append_result(_result("z", "random", 0, 100.0, kind="bench"))
        assert store.query(group_by=["axes.strategy"]) == before

    def test_unknown_aggregate_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown aggregate"):
            self._store(tmp_path).query(agg="median")

    def test_result_order_does_not_change_aggregate(self, tmp_path):
        forward = FleetStore(tmp_path / "f")
        backward = FleetStore(tmp_path / "b")
        values = [("a", 1.1), ("b", 2.7), ("c", 0.3), ("d", 9.9)]
        for job_id, pi in values:
            forward.append_result(_result(job_id, pi=pi))
        for job_id, pi in reversed(values):
            backward.append_result(_result(job_id, pi=pi))
        assert json.dumps(forward.query()) == json.dumps(backward.query())


class TestIndex:
    def test_index_written_atomically(self, tmp_path):
        store = FleetStore(tmp_path / "s")
        store.append_event("scheduled", "j1")
        store.append_event("started", "j1", attempt=1)
        store.append_result(_result("j1"))
        store.append_event("completed", "j1", attempt=1)
        path = store.write_index()
        index = json.loads(path.read_text())
        assert index["schema"] == STORE_SCHEMA
        assert index["jobs"]["j1"] == {"state": "completed", "has_result": True}
        assert not path.with_suffix(".json.tmp").exists()
