"""Experiment harness: configs, scenario runner, figure/table regenerators."""

from repro.experiments.config import ChurnConfig, ExperimentConfig, SMALL_CONFIG
from repro.experiments.figures import (
    DEFAULT_FRACTIONS,
    base_config,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    payoff_cdf_at_fraction,
)
from repro.experiments.reporting import (
    format_table,
    render_forwarder_sets,
    render_payoff_cdf,
    render_payoff_vs_fraction,
    render_table2,
)
from repro.experiments.runner import (
    SweepPoint,
    SweepResult,
    metric_average_good_payoff,
    metric_forwarder_set_size,
    metric_routing_efficiency,
    pooled_good_payoffs,
    run_replicates,
    sweep,
)
from repro.experiments.planner import ContractPlan, PlannerResult, plan_contract
from repro.experiments.plotting import (
    cdf_plot,
    forwarder_sets_plot,
    line_plot,
    payoff_vs_fraction_plot,
)
from repro.experiments.scenario import ScenarioResult, run_scenario
from repro.experiments.suite import SuiteResult, run_suite
from repro.experiments.tables import PAPER_TABLE2, Table2Result, table2

__all__ = [
    "ChurnConfig",
    "ContractPlan",
    "DEFAULT_FRACTIONS",
    "ExperimentConfig",
    "PlannerResult",
    "PAPER_TABLE2",
    "SMALL_CONFIG",
    "ScenarioResult",
    "SuiteResult",
    "SweepPoint",
    "SweepResult",
    "Table2Result",
    "base_config",
    "cdf_plot",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "format_table",
    "forwarder_sets_plot",
    "line_plot",
    "metric_average_good_payoff",
    "metric_forwarder_set_size",
    "metric_routing_efficiency",
    "payoff_cdf_at_fraction",
    "payoff_vs_fraction_plot",
    "plan_contract",
    "pooled_good_payoffs",
    "render_forwarder_sets",
    "render_payoff_cdf",
    "render_payoff_vs_fraction",
    "render_table2",
    "run_replicates",
    "run_scenario",
    "run_suite",
    "sweep",
    "table2",
]
