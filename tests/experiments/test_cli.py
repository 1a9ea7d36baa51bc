"""Tests for the command-line interface."""

import pytest

from repro.experiments.cli import build_parser, main


def test_run_command(capsys):
    rc = main(
        [
            "run",
            "--seed", "3",
            "--nodes", "16",
            "--pairs", "4",
            "--transmissions", "24",
            "--no-bank",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "strategy=utility-I" in out
    assert "per-series good-node payoff" in out


def test_run_with_topology_and_strategy(capsys):
    rc = main(
        [
            "run", "--strategy", "random", "--topology", "regular",
            "--nodes", "16", "--pairs", "4", "--transmissions", "24",
            "--no-bank",
        ]
    )
    assert rc == 0
    assert "strategy=random" in capsys.readouterr().out


def test_figure3_command(capsys, monkeypatch):
    import repro.experiments.cli as cli
    from repro.experiments.figures import PayoffVsFraction

    monkeypatch.setattr(
        cli,
        "figure3",
        lambda **kw: PayoffVsFraction(
            strategy="utility-I", fractions=[0.1], means=[300.0], ci95=[5.0]
        ),
    )
    rc = main(["figure", "3"])
    assert rc == 0
    assert "Figure 3" in capsys.readouterr().out


def test_table_command(capsys, monkeypatch):
    import repro.experiments.cli as cli
    from repro.experiments.tables import Table2Result

    fake = Table2Result(fractions=[0.1], taus=[0.5])
    fake.cells[(0.1, 0.5)] = 42.0
    monkeypatch.setattr(cli, "table2", lambda **kw: fake)
    rc = main(["table", "2"])
    assert rc == 0
    assert "42" in capsys.readouterr().out


def test_prop1_command(capsys):
    rc = main(["prop", "1", "--seeds", "1"])
    out = capsys.readouterr().out
    assert "Proposition 1" in out
    assert rc == 0  # the claim holds


def test_run_trace_and_metrics_export(capsys, tmp_path):
    trace_file = tmp_path / "trace.jsonl"
    metrics_file = tmp_path / "metrics.prom"
    rc = main(
        [
            "run",
            "--nodes", "16", "--pairs", "4", "--transmissions", "24",
            "--no-bank",
            "--trace-out", str(trace_file),
            "--metrics-out", str(metrics_file),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "trace:" in out and "metrics:" in out
    assert trace_file.read_text().startswith('{"type": "meta"')
    prom = metrics_file.read_text()
    assert "# TYPE repro_events_total counter" in prom
    assert "repro_phase_wall_seconds" in prom


def test_run_metrics_json_format(tmp_path):
    import json

    metrics_file = tmp_path / "metrics.json"
    rc = main(
        [
            "run",
            "--nodes", "16", "--pairs", "4", "--transmissions", "24",
            "--no-bank",
            "--metrics-out", str(metrics_file),
            "--metrics-format", "json",
        ]
    )
    assert rc == 0
    obj = json.loads(metrics_file.read_text())
    assert obj["schema"] == "repro-obs/metrics-v1"
    assert obj["metrics"]["repro_perf_edges_scored_total"]["type"] == "counter"


def test_obs_summarize_command(capsys, tmp_path):
    trace_file = tmp_path / "trace.jsonl"
    main(
        [
            "run",
            "--nodes", "16", "--pairs", "4", "--transmissions", "24",
            "--no-bank",
            "--trace-out", str(trace_file),
        ]
    )
    capsys.readouterr()
    rc = main(["obs", "summarize", str(trace_file), "--max-series", "2",
               "--top", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "== run trace ==" in out
    assert "top spans by cumulative wall time" in out
    assert "top event kinds by count" in out
    assert "per-series round timelines" in out


def test_obs_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["obs"])


def test_invalid_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "9"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("run", "figure", "table", "prop"):
        assert cmd in text


def test_suite_command(capsys, monkeypatch, tmp_path):
    import repro.experiments.suite as suite_mod
    from repro.experiments.suite import ArtefactResult, SuiteResult

    fake = SuiteResult(preset="quick", n_seeds=1)
    fake.artefacts.append(ArtefactResult("Figure 3", True, "ok", "body", 0.1))
    monkeypatch.setattr(
        "repro.experiments.suite.run_suite", lambda **kw: fake
    )
    out_file = tmp_path / "report.md"
    rc = main(["suite", "--seeds", "1", "-o", str(out_file)])
    assert rc == 0
    assert "Reproduction suite report" in out_file.read_text()


def test_suite_command_failure_exit_code(monkeypatch, capsys):
    from repro.experiments.suite import ArtefactResult, SuiteResult

    fake = SuiteResult(preset="quick", n_seeds=1)
    fake.artefacts.append(ArtefactResult("Table 2", False, "inverted", "x", 0.1))
    monkeypatch.setattr(
        "repro.experiments.suite.run_suite", lambda **kw: fake
    )
    rc = main(["suite", "--seeds", "1"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_figure_plot_flag(capsys, monkeypatch):
    import repro.experiments.cli as cli
    from repro.experiments.figures import PayoffVsFraction

    monkeypatch.setattr(
        cli,
        "figure3",
        lambda **kw: PayoffVsFraction(
            strategy="utility-I", fractions=[0.1, 0.9], means=[300.0, 200.0],
            ci95=[5.0, 5.0],
        ),
    )
    rc = main(["figure", "3", "--plot"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Figure 3" in out
    assert "avg payoff" in out  # the ASCII chart's y-axis label


@pytest.mark.parametrize("value", ["0", "x"])
@pytest.mark.parametrize(
    "argv",
    [["prop", "1", "--seeds", "2"], ["figure", "5"], ["table", "2"], ["suite"]],
    ids=["prop", "figure", "table", "suite"],
)
def test_bad_repro_jobs_is_a_usage_error(argv, value, capsys, monkeypatch):
    """A bad pool width is one error line and exit 2, before any scenario."""
    import repro.experiments.runner as runner

    def no_scenario(config):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(runner, "run_scenario", no_scenario)
    monkeypatch.setenv("REPRO_JOBS", value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: REPRO_JOBS") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--nodes", "1"],
        ["--pairs", "0"],
        ["--fraction", "2"],
        ["--fault-severity", "1.5"],
        ["--tau", "-1"],
        ["--shards", "2", "--backend", "python"],
        ["--trace-out", "/nonexistent-dir/t.jsonl"],
        ["--metrics-out", "/nonexistent-dir/m.prom"],
    ],
    ids=[
        "nodes", "pairs", "fraction", "severity", "tau", "shards-python",
        "trace-out-dir", "metrics-out-dir",
    ],
)
def test_run_with_an_invalid_scenario_is_a_usage_error(argv, capsys, monkeypatch):
    """An option value the scenario config rejects, or an output path
    that cannot be written, is one error line and exit 2, before any
    scenario runs (not a traceback after it)."""
    import repro.experiments.cli as cli

    def no_scenario(config):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(cli, "run_scenario", no_scenario)
    assert main(["run", "--no-bank", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "5", "--seeds", "0"],
        ["table", "2", "--seeds", "0"],
        ["prop", "1", "--seeds", "0"],
        ["suite", "--seeds", "0"],
        ["figure", "3", "--seeds", "-1"],
    ],
    ids=["figure5", "table2", "prop1", "suite", "figure3-negative"],
)
def test_seeds_below_one_is_a_usage_error(argv, capsys, monkeypatch):
    """``--seeds`` < 1 is an argparse usage error (exit 2) naming the
    option, before any scenario runs; exit 1 would read as a failed claim."""
    import repro.experiments.runner as runner

    def no_scenario(config):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(runner, "run_scenario", no_scenario)
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert "argument --seeds: must be >= 1" in captured.err
    assert captured.out == ""
