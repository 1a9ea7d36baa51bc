"""Backend-dispatch precedence: CLI flag > ExperimentConfig.backend >
``REPRO_BACKEND`` > the numpy default.

The chain has three hand-off points — argparse into the config, the
config into the PathBuilder, and the builder's environment fallback —
and a regression at any of them silently runs the wrong backend (the
decisions are bit-identical, so only the counters and the performance
change).  These tests pin each link, plus the observable outcome: which
lane's perf counters tick during a real scenario run.
"""

import pytest

import repro.experiments.cli as cli
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario


class _CapturedRun(Exception):
    """Raised by the stubbed run_scenario to stop _cmd_run early."""


@pytest.fixture
def captured_config(monkeypatch):
    captured = {}

    def fake_run(cfg):
        captured["cfg"] = cfg
        raise _CapturedRun

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    return captured


def _main(argv):
    with pytest.raises(_CapturedRun):
        cli.main(argv)


# ---- link 1: CLI -> config -------------------------------------------------
def test_cli_backend_flag_reaches_config(captured_config, monkeypatch):
    _main(["run", "--backend", "python"])
    assert captured_config["cfg"].backend == "python"
    # The flag wins even when the environment says otherwise: an explicit
    # config.backend short-circuits the builder's env resolution.
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    _main(["run", "--backend", "python"])
    assert captured_config["cfg"].backend == "python"


def test_cli_without_flag_leaves_resolution_to_builder(captured_config):
    _main(["run"])
    assert captured_config["cfg"].backend is None


def test_cli_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["run", "--backend", "cuda"])


def test_cli_position_aware_flag_reaches_config(captured_config):
    _main(["run", "--position-aware"])
    assert captured_config["cfg"].position_aware is True
    _main(["run"])
    assert captured_config["cfg"].position_aware is False


# ---- link 2 + 3: config / environment / default ---------------------------
#: Small but above the Model-II crossover (n_nodes >= 20), so the numpy
#: lane demonstrably runs through the kernels when selected.
_CFG = dict(
    seed=11,
    strategy="utility-II",
    lookahead=2,
    n_nodes=24,
    n_pairs=4,
    total_transmissions=40,
    use_bank=False,
)


def _kernel_calls(backend, monkeypatch, env=None):
    if env is None:
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
    else:
        monkeypatch.setenv("REPRO_BACKEND", env)
    result = run_scenario(ExperimentConfig(backend=backend, **_CFG))
    return result.perf_counters["kernel_calls"]


def test_config_backend_beats_environment(monkeypatch):
    assert _kernel_calls("python", monkeypatch, env="numpy") == 0
    assert _kernel_calls("numpy", monkeypatch, env="python") > 0


def test_environment_beats_default(monkeypatch):
    assert _kernel_calls(None, monkeypatch, env="python") == 0
    assert _kernel_calls(None, monkeypatch, env="numpy") > 0


def test_unset_everything_defaults_to_numpy(monkeypatch):
    assert _kernel_calls(None, monkeypatch) > 0


def test_model1_on_numpy_stays_scalar(monkeypatch):
    # Model I at the paper's degree 5 sits below the Model I kernel
    # crossover, so on numpy its decisions take the scalar path: the
    # scalar selectivity queries tick, the kernels never do.
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    cfg = ExperimentConfig(**dict(_CFG, backend="numpy", strategy="utility-I"))
    counters = run_scenario(cfg).perf_counters
    assert counters["kernel_calls"] == 0
    assert counters["selectivity_queries"] > 0
