"""Scenario-level observability: determinism neutrality, phase timings,
trace content, metrics export and the summarize report."""

import pickle

import pytest

from repro.experiments.config import ExperimentConfig, FaultConfig
from repro.experiments.scenario import run_scenario
from repro.obs import ObsConfig, RunTrace
from repro.obs.summarize import summarize_file, summarize_trace

BASE = dict(seed=11, n_nodes=24, n_pairs=6, total_transmissions=60)


@pytest.fixture(scope="module")
def traced_result():
    return run_scenario(ExperimentConfig(**BASE, obs=ObsConfig()))


class TestDeterminismNeutrality:
    def test_enabling_obs_never_changes_outcomes(self, traced_result):
        plain = run_scenario(ExperimentConfig(**BASE))
        traced = traced_result
        assert plain.payoffs == traced.payoffs
        assert plain.earnings == traced.earnings
        assert plain.forwarder_set_sizes() == traced.forwarder_set_sizes()
        assert plain.series_settlements == traced.series_settlements
        assert plain.sim_duration == traced.sim_duration

    def test_disabled_run_carries_no_trace(self):
        result = run_scenario(ExperimentConfig(**BASE))
        assert result.trace is None
        # Metrics and phase timings are collected off the hot path and
        # are therefore always available.
        assert result.metrics is not None
        assert result.phase_timings

    def test_all_disabled_obs_config_wires_nothing(self):
        cfg = ExperimentConfig(
            **BASE, obs=ObsConfig(events=False, spans=False)
        )
        assert run_scenario(cfg).trace is None


class TestPhaseTimings:
    def test_phases_present_and_sane(self, traced_result):
        timings = traced_result.phase_timings
        assert set(timings) == {"setup", "simulate", "settle", "collect"}
        assert all(v >= 0.0 for v in timings.values())
        # Settlement happens inside the event loop, so it can never
        # exceed the simulate phase that contains it.
        assert timings["settle"] <= timings["simulate"]

    @pytest.mark.parametrize(
        "obs",
        [None, ObsConfig(events=True, spans=False), ObsConfig()],
        ids=["obs-off", "events-only", "obs-on"],
    )
    def test_every_obs_mode_times_all_four_phases(self, obs):
        result = run_scenario(ExperimentConfig(**BASE, obs=obs))
        timings = result.phase_timings
        assert set(timings) == {"setup", "simulate", "settle", "collect"}
        assert timings["settle"] <= timings["simulate"]
        if obs is None or not obs.spans:
            # The timing spans stay private to the run.
            assert result.trace is None or result.trace.spans == []

    def test_timings_are_the_span_walls(self, traced_result):
        spans = traced_result.trace.spans
        walls = {s.name: s.wall for s in spans if s.name.startswith("scenario.")}
        timings = traced_result.phase_timings
        assert timings["setup"] == walls["scenario.setup"]
        assert timings["simulate"] == walls["scenario.simulate"]
        assert timings["collect"] == walls["scenario.collect"]
        assert timings["settle"] == sum(s.wall for s in spans if s.name == "settle.series")

    def test_summary_renders_wall_clock_line(self, traced_result):
        assert "wall clock:" in traced_result.summary()


class TestTraceContent:
    def test_core_events_present(self, traced_result):
        counts = traced_result.trace.counts_by_kind()
        assert counts["path.form"] == sum(
            s.rounds_completed for s in traced_result.series_stats
        )
        assert counts["hop.forward"] > 0
        assert counts["probe.sweep"] > 0
        assert counts["escrow.deposit"] == counts["escrow.release"]
        assert counts["settle.series"] == len(traced_result.series_stats)

    def test_span_tree(self, traced_result):
        spans = traced_result.trace.spans
        names = {s.name for s in spans}
        assert {"scenario.setup", "scenario.simulate", "scenario.collect",
                "path.build", "probe.sweep", "settle.series"} <= names
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.parent_id is not None:
                assert s.parent_id in by_id
                assert s.depth == by_id[s.parent_id].depth + 1
        # settle.series runs inside the simulate phase span.
        sim_ids = {s.span_id for s in spans if s.name == "scenario.simulate"}
        for s in spans:
            if s.name == "settle.series":
                assert s.parent_id in sim_ids

    def test_event_sim_times_monotonic(self, traced_result):
        ts = [e.t for e in traced_result.trace.events]
        assert ts == sorted(ts)

    def test_spne_spans_for_utility_ii(self):
        cfg = ExperimentConfig(
            **{**BASE, "strategy": "utility-II"}, obs=ObsConfig()
        )
        trace = run_scenario(cfg).trace
        assert "spne.decide" in {s.name for s in trace.spans}

    def test_result_with_trace_pickles(self, traced_result):
        back = pickle.loads(pickle.dumps(traced_result))
        assert back.trace.counts_by_kind() == traced_result.trace.counts_by_kind()
        assert back.metrics.to_prometheus() == traced_result.metrics.to_prometheus()


class TestMetricsExport:
    def test_prometheus_content(self, traced_result):
        text = traced_result.metrics.to_prometheus()
        assert "repro_perf_edges_scored_total" in text
        assert 'repro_phase_wall_seconds{phase="simulate"}' in text
        assert 'repro_events_total{kind="path.form"}' in text
        assert 'repro_spans_total{span="path.build"}' in text
        assert "repro_bank_accounts" in text

    def test_event_counters_match_trace(self, traced_result):
        ev = traced_result.metrics.counter("repro_events_total")
        for kind, n in traced_result.trace.counts_by_kind().items():
            assert ev.value(kind=kind) == float(n)


class TestSummarize:
    def test_report_renders(self, traced_result):
        report = summarize_trace(traced_result.trace)
        assert "== run trace ==" in report
        assert "top spans by cumulative wall time" in report
        assert "path.build" in report
        assert "per-series round timelines" in report

    def test_round_trip_through_file(self, tmp_path, traced_result):
        path = tmp_path / "trace.jsonl"
        traced_result.trace.write_jsonl(path)
        back = RunTrace.read_jsonl(path)
        assert back.counts_by_kind() == traced_result.trace.counts_by_kind()
        report = summarize_file(path)
        assert "== run trace ==" in report

    def test_gzip_round_trip(self, tmp_path, traced_result):
        plain = tmp_path / "trace.jsonl"
        gz = tmp_path / "trace.jsonl.gz"
        traced_result.trace.write_jsonl(plain)
        traced_result.trace.write_jsonl(gz)
        assert gz.stat().st_size < plain.stat().st_size
        back = RunTrace.read_jsonl(gz)
        assert back.counts_by_kind() == traced_result.trace.counts_by_kind()
        assert "== run trace ==" in summarize_file(gz)

    def test_directory_of_traces_merges(self, tmp_path, traced_result):
        traced_result.trace.write_jsonl(tmp_path / "a.jsonl")
        traced_result.trace.write_jsonl(tmp_path / "b.jsonl.gz")
        report = summarize_file(tmp_path)
        assert "merged_traces: 2" in report
        n = len(traced_result.trace.events)
        assert f"events: {2 * n} " in report

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no trace files"):
            summarize_file(tmp_path)

    def test_top_kinds_breakdown(self, traced_result):
        report = summarize_trace(traced_result.trace, top_kinds=3)
        assert "== top event kinds by count" in report
        # Omitted by default.
        assert "top event kinds" not in summarize_trace(traced_result.trace)


@pytest.mark.chaos
class TestChaosTraceRoundTrip:
    """Satellite: export a chaos run's trace, re-read it, and reconstruct
    the per-series round timeline from the file alone."""

    def test_chaos_trace_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            **BASE,
            faults=FaultConfig.from_severity(0.35),
            obs=ObsConfig(),
        )
        result = run_scenario(cfg)
        trace = result.trace
        counts = trace.counts_by_kind()
        assert any(k.startswith("fault.") for k in counts)

        path = tmp_path / "chaos.jsonl"
        n_lines = trace.write_jsonl(path)
        assert n_lines == 1 + len(trace.events) + len(trace.spans)
        back = RunTrace.read_jsonl(path)
        assert back.events == trace.events
        assert back.spans == trace.spans

        # Event ordering survives the round trip: seq dense from 0 and
        # sim time monotone non-decreasing in seq order.
        assert [e.seq for e in back.events] == list(range(len(back.events)))
        ts = [e.t for e in back.events]
        assert ts == sorted(ts)

        # The reconstructed timeline accounts for every series and
        # matches the in-memory per-series round outcomes.
        timeline = back.series_timeline()
        assert set(timeline) == {s.cid for s in result.series_stats}
        for stats in result.series_stats:
            formed = [
                e for e in timeline[stats.cid] if e.kind == "path.form"
            ]
            assert len(formed) == stats.rounds_completed
            round_ts = [e.t for e in timeline[stats.cid]]
            assert round_ts == sorted(round_ts)
