"""Self-tests of the end-to-end benchmark harness.

Outside the tier-1 ``testpaths``; run with

    python -m pytest -q benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

import compare
import harness
import run
import stats

SMALL = harness.ExperimentConfig(
    seed=3,
    n_nodes=24,
    n_pairs=4,
    total_transmissions=240,
    strategy="utility-II",
    lookahead=2,
)


def _bench():
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root 1 [0, 10] -> a 2 [1, 6] -> b 3 [2, 3], c 4 [4, 5]; d 5 [7, 9]
    spans = [
        (3, 2, 1, "b", 2.0, 3.0),
        (4, 2, 1, "c", 4.0, 5.0),
        (2, 1, 1, "a", 1.0, 6.0),
        (5, 1, 1, "d", 7.0, 9.0),
        (1, 0, 1, harness.ROOT_SPAN, 0.0, 10.0),
    ]
    selfs = harness.self_times(spans)
    assert selfs == {1: 3.0, 2: 3.0, 3: 1.0, 4: 1.0, 5: 2.0}
    assert sum(selfs.values()) == 10.0


def test_setup_phase_and_ledger_add_up_to_wall():
    rec = harness.Recorder(trace=True)
    rec.scenarios = [{"id": 1, "setup_end": 2.0}]
    rec.spans = [
        (2, 1, 1, "Overlay.bootstrap", 0.5, 1.5),
        (3, 1, 1, "Environment.step", 3.0, 8.0),
        (4, 3, 1, "PathBuilder.build_round", 4.0, 6.0),
        (1, 0, 1, harness.ROOT_SPAN, 0.0, 10.0),
    ]
    ledger = harness.layer_ledger(harness.span_totals(rec))
    assert ledger == {"setup": 1.0, "engine": 3.0, "path": 2.0, "unattributed": 4.0}


# -- percentiles ---------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile_ok(640, 95)  # 32 beyond
    assert not stats.tail_percentile_ok(640, 99)  # 6 beyond
    assert stats.tail_percentile_ok(200, 95)  # exactly 10 beyond
    assert not stats.tail_percentile_ok(199, 95)
    values = sorted(float(i) for i in range(1, 101))
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 95) == 95.0


def test_end_to_end_refuses_a_thin_tail():
    rec = harness.Recorder(trace=False)
    rec.scenarios = [
        {"id": 1, "seed": 1, "start": 0.0, "setup_end": 0.1, "end": 1.0, "rounds": [0.001] * 199}
    ]
    with pytest.raises(RuntimeError, match="too few"):
        harness.end_to_end_metrics(rec, [{"completed": 199}])


def test_end_to_end_counts_every_scenario():
    rec = harness.Recorder(trace=False)
    rec.scenarios = [
        {"id": i, "seed": 1, "start": 0.0, "setup_end": setup, "end": wall, "rounds": [0.001] * 100}
        for i, (setup, wall) in enumerate([(0.1, 1.0), (0.2, 2.0), (0.3, 4.0)], 1)
    ]
    metrics = harness.end_to_end_metrics(rec, [{"completed": 100}] * 3)
    assert metrics["setup_s"] == 0.2 and metrics["scenario_s"] == 2.0
    assert metrics["rounds_per_s"] == pytest.approx(300 / (0.9 + 1.8 + 3.7))


# -- wrapping ------------------------------------------------------------------


def _wrapped_attributes():
    targets = [(m, o, a) for m, o, a, _layer in harness.SPAN_TARGETS]
    targets += list(harness.COUNT_TARGETS)
    targets += [
        ("repro.sim.engine", "Environment", "run"),
        ("repro.core.protocol", "ConnectionSeries", "run_round"),
        ("repro.core.protocol", "ConnectionSeries", "retry_round"),
    ]
    return {
        (m, o, a): vars(harness._resolve(m, o))[a] for m, o, a in targets
    }


def test_unwrapping_restores_every_original():
    before = _wrapped_attributes()
    with harness.Recorder(trace=True):
        during = _wrapped_attributes()
        assert all(during[k] is not before[k] for k in before)
    after = _wrapped_attributes()
    assert all(after[k] is before[k] for k in before)


def test_tracing_leaves_results_alone_and_untraced_run_after_is_clean():
    plain = harness.result_digest(harness.run_scenario(SMALL))
    traced = harness.Recorder(trace=True)
    with traced:
        assert harness.result_digest(traced.run(SMALL)) == plain
    assert traced.spans and traced.scenarios[0]["setup_end"] is not None
    untraced = harness.Recorder(trace=False)
    with untraced:
        assert harness.result_digest(untraced.run(SMALL)) == plain
    assert untraced.spans == [] and len(untraced.round_s) >= 240


def test_digest_is_stable_and_sensitive():
    first = harness.result_digest(harness.run_scenario(SMALL))
    assert harness.result_digest(harness.run_scenario(SMALL)) == first
    assert harness.result_digest(harness.run_scenario(replace(SMALL, seed=4))) != first


def test_metric_sets_match_benchmark_json():
    bench = _bench()
    harness.prepare_environment()
    untraced = harness.Recorder(trace=False)
    single = harness.Recorder(trace=True)
    k2 = harness.Recorder(trace=True)
    before = harness.shm_segments()
    with untraced:
        untraced.run(SMALL)
    with single:
        summaries = [harness.summarize_result(single.run(SMALL))]
    with k2:
        k2.run(replace(SMALL, shard=harness.ShardConfig(n_shards=2)))
    assert harness.shm_segments() == before
    e2e = harness.end_to_end_metrics(untraced, summaries)
    assert set(e2e) | {"peak_rss_mb"} == {m["name"] for m in bench["end_to_end"]}
    layers = harness.layer_metrics(single, summaries, untraced.walls(), k2)
    assert set(layers) == {m["name"] for m in bench["per_layer"]}
    assert layers["model2.decisions"] > 0 and layers["shard.builds"] > 0
    assert 0.0 < layers["trace.unattributed_ratio"] < 0.5


# -- committed data ------------------------------------------------------------


def test_digests_cover_every_workload_seed():
    digests = harness.load_digests()
    for workload in harness.WORKLOADS.values():
        assert {str(s) for s in workload.seeds} <= set(digests[workload.golden])


def test_benchmark_json_is_well_formed():
    bench = _bench()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert bench["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())  # the schema's limit
    assert bounds["setup_s"] == max(bounds.values())


# -- comparer -----------------------------------------------------------------

MACHINE = {"cpu_model": "cpu", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}


def _result_set(values, machine=MACHINE, correct=True, run_seconds=20, first_seed=1):
    return {
        "schema": run.RESULT_SCHEMA,
        "machine": dict(machine),
        "run_seconds": run_seconds,
        "runs": [
            {
                "workload": "w",
                "seed": first_seed + i,
                "trace": 0,
                "correct": correct,
                "metrics": {"scenario_s": {"value": v, "unit": "s"}},
            }
            for i, v in enumerate(values)
        ],
    }


BENCH = {
    "end_to_end": [{"name": "scenario_s", "unit": "s", "better": "lower", "bound": 0.1}]
}


def _verdict(parent, change):
    rows = compare.compare_sets(_result_set(parent), _result_set(change), BENCH)
    return rows[0][2]["verdict"]


def test_comparer_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert _verdict(steady, steady) == "ok"
    assert _verdict(steady, [v * 1.2 for v in steady]) == "regression"
    assert _verdict(steady, [v * 0.8 for v in steady]) == "improved"
    # A clear gain over too few pairs is no claim.
    assert _verdict(steady[:5], [v * 0.8 for v in steady[:5]]) == "ok"
    noisy = [1.0, 1.3, 0.8, 1.2, 0.9, 1.0, 1.25, 0.85, 1.1, 0.95]
    assert _verdict(noisy, [v * 1.05 for v in noisy]) == "unresolved"
    # Wider spread than the bound, but every change run beats every parent run.
    assert _verdict([2.0, 2.5, 3.0], [1.0, 1.2, 1.5]) == "ok"


def test_comparer_refuses_other_machines_and_incorrect_runs():
    other = dict(MACHINE, cpu_model="other cpu")
    with pytest.raises(compare.Refused, match="cpu_model"):
        compare.compare_sets(_result_set([1.0]), _result_set([1.0], machine=other), BENCH)
    with pytest.raises(compare.Refused, match="incorrect"):
        compare.compare_sets(_result_set([1.0]), _result_set([1.0], correct=False), BENCH)


def test_comparer_refuses_unpaired_runs():
    ten = [1.0] * 10
    with pytest.raises(compare.Refused, match="run_seconds"):
        compare.compare_sets(_result_set(ten), _result_set(ten, run_seconds=30), BENCH)
    with pytest.raises(compare.Refused, match="seeds"):
        compare.compare_sets(_result_set(ten), _result_set(ten + [1.0]), BENCH)
    with pytest.raises(compare.Refused, match="seeds"):
        compare.compare_sets(_result_set(ten), _result_set(ten, first_seed=2), BENCH)


def test_append_extends_only_a_matching_result_set(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(_result_set([1.0, 2.0])))
    assert [r["seed"] for r in run.earlier_runs(path, MACHINE, 20)] == [1, 2]
    with pytest.raises(SystemExit, match="run_seconds"):
        run.earlier_runs(path, MACHINE, 30)
    with pytest.raises(SystemExit, match="run_seconds"):
        run.earlier_runs(path, dict(MACHINE, nproc=4), 20)


def test_comparer_exit_codes(tmp_path):
    parent, change, bench = tmp_path / "p.json", tmp_path / "c.json", tmp_path / "b.json"
    bench.write_text(json.dumps(BENCH))
    parent.write_text(json.dumps(_result_set([1.0] * 10)))
    change.write_text(json.dumps(_result_set([1.5] * 10)))
    assert compare.main([str(parent), str(change), "--benchmark", str(bench)]) == 1
    assert compare.main([str(parent), str(parent), "--benchmark", str(bench)]) == 0
    change.write_text(json.dumps(_result_set([1.0] * 10, machine=dict(MACHINE, nproc=4))))
    assert compare.main([str(parent), str(change), "--benchmark", str(bench)]) == 2
