"""CLI surface: repro fleet run/show/query/export.

Most tests drive the in-process handlers via the real argparse tree;
the SIGINT drain is exercised end-to-end through a subprocess.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.fleet.dash import render_dashboard
from repro.fleet.store import FleetStore

SPEC = {
    "name": "cli",
    "base": {
        "n_nodes": 16,
        "n_pairs": 4,
        "total_transmissions": 24,
        "use_bank": False,
    },
    "axes": {"strategy": ["random", "utility-I"]},
    "seeds": [0, 1],
    "backends": ["numpy"],
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


def _run(args):
    return main([str(a) for a in args])


class TestRunAndQuery:
    def test_run_resume_and_query(self, tmp_path, spec_path, capsys):
        store_dir = tmp_path / "store"
        assert _run(["fleet", "run", spec_path, "--store", store_dir,
                     "--max-jobs", "2"]) == 3
        assert _run(["fleet", "run", spec_path, "--store", store_dir]) == 0
        capsys.readouterr()

        assert _run(["fleet", "query", store_dir, "--group-by",
                     "axes.strategy", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["axes.strategy"] for r in rows] == ["random", "utility-I"]
        assert all(r["n"] == 2 for r in rows)

        assert _run(["fleet", "show", store_dir]) == 0
        shown = capsys.readouterr().out
        assert "completed: 4" in shown

    def test_query_where_and_table(self, tmp_path, spec_path, capsys):
        store_dir = tmp_path / "store"
        _run(["fleet", "run", spec_path, "--store", store_dir])
        capsys.readouterr()
        assert _run(["fleet", "query", store_dir, "--where",
                     "config.seed=1", "--group-by", "axes.strategy"]) == 0
        out = capsys.readouterr().out
        assert "mean(metrics.pi_mean)" in out
        assert "random" in out and "utility-I" in out

    def test_export_jsonl_and_csv(self, tmp_path, spec_path, capsys):
        store_dir = tmp_path / "store"
        _run(["fleet", "run", spec_path, "--store", store_dir])
        capsys.readouterr()

        out_path = tmp_path / "dump.jsonl"
        assert _run(["fleet", "export", store_dir, "--out", out_path]) == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["kind"] == "scenario" for line in lines)

        csv_path = tmp_path / "dump.csv"
        assert _run(["fleet", "export", store_dir, "--format", "csv",
                     "--out", csv_path]) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == "job_id,kind,spec,axes,metric,value"

    @pytest.mark.parametrize(
        "spec, flags, env",
        [
            ({"base": {"churn": {"sesion_median": 5}}}, [], {}),
            ({"bogus": 1}, [], {}),
            ({}, ["--jobs", "0"], {}),
            ({}, [], {"REPRO_JOBS": "x"}),
            ({}, ["--max-jobs", "0"], {}),
            ({}, ["--max-jobs", "-1"], {}),
        ],
        ids=["misspelled-nested-field", "unknown-top-level-key", "jobs-0",
             "repro-jobs-x", "max-jobs-0", "max-jobs-negative"],
    )
    def test_bad_spec_exits_2_without_a_store(
        self, tmp_path, spec, flags, env, capsys, monkeypatch
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(spec, seeds=[0])))
        store_dir = tmp_path / "store"
        assert _run(["fleet", "run", path, "--store", store_dir, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not store_dir.exists()


class TestDash:
    def test_show_frame(self, tmp_path, spec_path, capsys):
        store_dir = tmp_path / "store"
        _run(["fleet", "run", spec_path, "--store", store_dir,
              "--max-jobs", "3"])
        capsys.readouterr()
        assert _run(["fleet", "show", store_dir]) == 0
        frame = capsys.readouterr().out
        assert "== repro fleet ==" in frame
        assert "3/4" in frame
        assert "resumable: 1" in frame

    def test_render_empty_store(self, tmp_path):
        frame = render_dashboard(FleetStore(tmp_path / "s"))
        assert "no jobs scheduled yet" in frame

    def test_eta_is_remaining_jobs_over_the_completion_rate(self, tmp_path):
        # Two workers, 4 jobs, 3 completions 10 s apart: the parent logs
        # every completion, so the rate (6 jobs/min) already covers both
        # workers and the last job is 10 s away.
        events = [{"type": "note", "note": "run.start", "spec": "eta",
                   "workers": 2, "ts": 0.0}]
        events += [{"type": "job", "event": "scheduled", "job_id": f"j{i}",
                    "ts": 0.0} for i in range(4)]
        events += [{"type": "job", "event": "completed", "job_id": f"j{i}",
                    "ts": 100.0 + 10 * i} for i in range(3)]
        store_dir = tmp_path / "s"
        store_dir.mkdir()
        (store_dir / "events.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in events)
        )
        frame = render_dashboard(FleetStore(store_dir))
        assert "throughput: 6.0 jobs/min   ETA: 10s" in frame


@pytest.mark.parametrize(
    "argv",
    [
        lambda store, missing: ["fleet", "show", missing],
        lambda store, missing: ["fleet", "query", missing],
        lambda store, missing: ["fleet", "export", missing],
        lambda store, missing: ["obs", "summarize", missing],
        lambda store, missing: [
            "fleet", "export", store, "--out", missing / "dump.jsonl"
        ],
    ],
    ids=["fleet-show", "fleet-query", "fleet-export", "obs-summarize",
         "fleet-export-out"],
)
def test_missing_path_exits_2_with_one_error_line(tmp_path, argv, capsys):
    store = FleetStore(tmp_path / "store").path
    missing = tmp_path / "nope"
    assert _run(argv(store, missing)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(missing) in captured.err
    assert captured.out == ""
    assert not missing.exists()


def test_malformed_where_exits_2_with_one_error_line(tmp_path, capsys):
    store = FleetStore(tmp_path / "store").path
    assert _run(["fleet", "query", store, "--where", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "'bogus'" in captured.err
    assert captured.out == ""


class TestSigint:
    def test_sigint_drains_and_resume_completes(self, tmp_path):
        """End-to-end graceful drain: SIGINT mid-sweep exits 3 with the
        store resumable; a rerun converges without re-starting done jobs."""
        # Enough slow-ish jobs that the interrupt lands mid-sweep.
        spec = dict(SPEC, name="sigint", seeds=[0, 1, 2, 3])
        spec["base"] = dict(spec["base"], total_transmissions=120)
        spec_path = tmp_path / "sigint.json"
        spec_path.write_text(json.dumps(spec))
        n_total = 8
        store_dir = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "run", str(spec_path),
             "--store", str(store_dir)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        # Wait for the first job to start, then interrupt the drain.
        events = store_dir / "events.jsonl"
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if events.exists() and '"started"' in events.read_text():
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("fleet run never started a job")
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 3, out

        store = FleetStore(store_dir)
        states = set(store.job_states().values())
        assert "resumable" in states or "completed" in states

        code = main(["fleet", "run", str(spec_path), "--store", str(store_dir)])
        assert code == 0
        resumed = FleetStore(store_dir)
        assert len(resumed.completed_job_ids()) == n_total
        assert all(n == 1 for n in resumed.started_counts().values())
