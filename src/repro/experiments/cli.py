"""Command-line interface: ``python -m repro ...``.

Subcommands:

- ``run`` — one simulation scenario, printing the summary (``--trace-out``
  / ``--metrics-out`` export the run's structured trace and metrics);
- ``figure {3,4,5,6,7}`` — regenerate a paper figure;
- ``table 2`` — regenerate Table 2 (with the paper's printed values);
- ``prop 1`` — the Proposition 1 reformation experiment;
- ``attack`` — the adversarial & economic scenario suite (coalition
  intersection, Sybil/whitewash, Stackelberg/market pricing,
  heterogeneous capacities) with invariant verdicts and the
  anonymity-degradation report (``--report``);
- ``obs summarize <trace.jsonl>`` — render a run report from an exported
  trace (top spans, per-subsystem event tables, round timelines); also
  accepts gzip traces and directories of traces;
- ``fleet run|show|query|export`` — the resumable sweep orchestrator
  with its persistent results store (:mod:`repro.fleet`);
- ``lint`` — the determinism & layering static analyser
  (:mod:`repro.analysis`); also available dependency-free as
  ``python -m repro.analysis``.

Scale is selected with ``--preset quick|paper`` and ``--seeds N``.  The
seed sweeps (``figure``, ``table``, ``prop``, ``suite``) run on
``REPRO_JOBS`` worker processes; a value that is not an integer >= 1 is
one ``error:`` line on stderr and exit status 2, before any scenario runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    DEFAULT_FRACTIONS,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)
from repro.experiments.reporting import (
    render_forwarder_sets,
    render_payoff_cdf,
    render_payoff_vs_fraction,
    render_table2,
)
from repro.experiments.runner import default_n_jobs
from repro.experiments.scenario import run_scenario
from repro.experiments.tables import table2


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Incentive-driven P2P anonymity system (ICPP 2007) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation scenario")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--strategy",
        choices=("random", "utility-I", "utility-II"),
        default="utility-I",
    )
    run_p.add_argument("--fraction", "-f", type=float, default=0.1,
                       help="fraction of malicious nodes")
    run_p.add_argument("--tau", type=float, default=2.0)
    run_p.add_argument("--nodes", type=int, default=40)
    run_p.add_argument("--pairs", type=int, default=100)
    run_p.add_argument("--transmissions", type=int, default=2000)
    run_p.add_argument(
        "--topology",
        choices=("random", "regular", "small-world", "scale-free"),
        default="random",
    )
    run_p.add_argument("--no-bank", action="store_true",
                       help="skip the payment system (faster)")
    run_p.add_argument(
        "--backend", choices=("python", "numpy"), default=None,
        help="scoring backend: scalar reference or batched numpy kernels "
             "(bit-identical decisions; default: $REPRO_BACKEND or numpy)",
    )
    run_p.add_argument(
        "--position-aware", action="store_true",
        help="condition selectivity on the predecessor hop (§2.3 "
             "predecessor differentiation; supported by both backends)",
    )
    run_p.add_argument(
        "--shards", type=int, default=0, metavar="K",
        help="run the sharded scenario engine with K worker processes "
             "(shared-memory world state; bit-identical to --backend "
             "numpy for any K; 0 = single-process)",
    )
    run_p.add_argument(
        "--fault-severity", type=float, default=0.0, metavar="S",
        help="chaos knob in [0, 1): inject drops/crashes/timeouts/outages "
             "scaled by S with retry/backoff recovery (0 = off)",
    )
    run_p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable structured tracing and write the run trace as JSONL "
             "(readable by 'repro obs summarize')",
    )
    run_p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics registry to this path",
    )
    run_p.add_argument(
        "--metrics-format", choices=("prom", "json"), default="prom",
        help="exporter for --metrics-out: Prometheus text or JSON",
    )

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("number", type=int, choices=(3, 4, 5, 6, 7))
    fig_p.add_argument("--plot", action="store_true",
                       help="render an ASCII chart in addition to the table")
    _scale_args(fig_p)

    tab_p = sub.add_parser("table", help="regenerate a paper table")
    tab_p.add_argument("number", type=int, choices=(2,))
    _scale_args(tab_p)

    prop_p = sub.add_parser("prop", help="run a proposition experiment")
    prop_p.add_argument("number", type=int, choices=(1,))
    _scale_args(prop_p)

    suite_p = sub.add_parser(
        "suite", help="regenerate every paper artefact and report"
    )
    suite_p.add_argument("--output", "-o", default=None,
                         help="write the markdown report to this path")
    _scale_args(suite_p)

    attack_p = sub.add_parser(
        "attack", help="adversarial & economic scenario suite"
    )
    attack_p.add_argument(
        "--family",
        choices=("all", "coalition", "sybil", "pricing", "capacity"),
        default="all",
        help="which scenario family to run (default: all, with invariants)",
    )
    attack_p.add_argument("--seed", type=int, default=0)
    attack_p.add_argument(
        "--preset", choices=("quick", "paper"), default="quick"
    )
    attack_p.add_argument(
        "--report", default=None, metavar="PATH",
        help="also run the malicious-fraction sweep and write the "
             "anonymity-degradation-vs-||pi|| report (markdown) here",
    )
    attack_p.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="write the suite summary (markdown) to this path "
             "instead of stdout",
    )

    obs_p = sub.add_parser("obs", help="observability tooling")
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    sum_p = obs_sub.add_parser(
        "summarize", help="render a run report from an exported JSONL trace"
    )
    sum_p.add_argument("trace",
                       help="trace written by --trace-out (.jsonl or "
                            ".jsonl.gz), or a directory of traces")
    sum_p.add_argument("--top-spans", type=int, default=10,
                       help="how many span names to chart (by cumulative wall time)")
    sum_p.add_argument("--max-series", type=int, default=12,
                       help="how many per-series round timelines to render")
    sum_p.add_argument("--top", type=int, default=None, metavar="N",
                       help="also chart the top N event kinds by count")

    fleet_p = sub.add_parser(
        "fleet", help="resumable sweep orchestrator (repro.fleet)"
    )
    from repro.fleet.cli import add_fleet_arguments

    add_fleet_arguments(fleet_p)

    lint_p = sub.add_parser(
        "lint", help="run the determinism & layering linter (repro.analysis)"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint_p)

    return parser


def _scale_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=("quick", "paper"), default="quick")
    p.add_argument("--seeds", type=int, default=3)


def _cmd_run(args: argparse.Namespace) -> int:
    faults = None
    if args.fault_severity > 0.0:
        from repro.experiments.config import FaultConfig

        faults = FaultConfig.from_severity(args.fault_severity)
    obs_config = None
    if args.trace_out is not None:
        from repro.obs import ObsConfig

        obs_config = ObsConfig()
    shard = None
    if args.shards > 0:
        from repro.sim.shard import ShardConfig

        shard = ShardConfig(n_shards=args.shards)
    cfg = ExperimentConfig(
        seed=args.seed,
        strategy=args.strategy,
        malicious_fraction=args.fraction,
        tau=args.tau,
        n_nodes=args.nodes,
        n_pairs=args.pairs,
        total_transmissions=args.transmissions,
        topology=args.topology,
        use_bank=not args.no_bank,
        faults=faults,
        obs=obs_config,
        backend=args.backend,
        position_aware=args.position_aware,
        shard=shard,
    )
    result = run_scenario(cfg)
    print(result.summary())
    if args.trace_out is not None:
        n = result.trace.write_jsonl(args.trace_out)
        print(f"  trace: {n} lines written to {args.trace_out}")
    if args.metrics_out is not None:
        from pathlib import Path

        text = (
            result.metrics.to_json(indent=2)
            if args.metrics_format == "json"
            else result.metrics.to_prometheus()
        )
        Path(args.metrics_out).write_text(text)
        print(f"  metrics: {args.metrics_format} written to {args.metrics_out}")
    print(f"  per-series good-node payoff: {result.average_good_series_payoff():.1f}")
    if faults is not None:
        injected = sum(
            result.degradation.get(k, 0)
            for k in (
                "messages_dropped", "hops_lost", "forwarder_crashes",
                "probe_timeouts", "bank_denials",
            )
        )
        print(
            f"  faults injected: {injected}  "
            f"recovered rounds: "
            f"{result.degradation.get('path_retries', 0)} path retries, "
            f"{result.degradation.get('rounds_abandoned', 0)} abandoned"
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.plotting import (
        cdf_plot,
        forwarder_sets_plot,
        payoff_vs_fraction_plot,
    )

    kwargs = dict(preset=args.preset, n_seeds=args.seeds)
    plot = getattr(args, "plot", False)
    if args.number in (3, 4):
        fig = figure3(**kwargs) if args.number == 3 else figure4(**kwargs)
        print(render_payoff_vs_fraction(fig, f"Figure {args.number}"))
        if plot:
            print()
            print(payoff_vs_fraction_plot(fig))
    elif args.number == 5:
        fig = figure5(fractions=DEFAULT_FRACTIONS, **kwargs)
        print(render_forwarder_sets(fig))
        if plot:
            print()
            print(forwarder_sets_plot(fig))
    else:
        fig = figure6(**kwargs) if args.number == 6 else figure7(**kwargs)
        print(render_payoff_cdf(fig, f"Figure {args.number}"))
        if plot:
            print()
            print(cdf_plot(fig.cdfs, title=f"Figure {args.number} (CDF)"))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    print(render_table2(table2(preset=args.preset, n_seeds=args.seeds)))
    return 0


def _cmd_prop(args: argparse.Namespace) -> int:
    from repro.core.metrics import mean_new_edge_fraction
    from repro.experiments.runner import run_replicates
    from repro.gametheory.propositions import proposition1_experiment

    def logs(strategy: str):
        base = ExperimentConfig(
            n_pairs=10 if args.preset == "quick" else 100,
            total_transmissions=200 if args.preset == "quick" else 2000,
            strategy=strategy,
            malicious_fraction=0.0,
        )
        out = []
        for r in run_replicates(base, args.seeds):
            out.extend(r.series_logs)
        return out

    res = proposition1_experiment(logs("random"), logs("utility-I"))
    print("Proposition 1 - mean new-edge fraction per round")
    print(f"  random routing:    {res.new_edge_fraction_random:.3f}")
    print(f"  utility-I routing: {res.new_edge_fraction_nonrandom:.3f}")
    print(f"  claim holds: {res.holds}")
    return 0 if res.holds else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.suite import run_suite

    result = run_suite(preset=args.preset, n_seeds=args.seeds, progress=print)
    report = result.to_markdown()
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
        print(f"report written to {path}")
    else:
        print(report)
    return 0 if result.all_passed else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.adversarial import (
        FAMILIES,
        degradation_report,
        run_attack_suite,
    )

    families = FAMILIES if args.family == "all" else (args.family,)
    suite = run_attack_suite(
        seed=args.seed, preset=args.preset, families=families, progress=print
    )
    summary = suite.to_markdown()
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(summary)
        print(f"suite summary written to {path}")
    else:
        print(summary)
    if args.report:
        report = degradation_report(
            seed=args.seed, preset=args.preset, progress=print
        )
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_markdown())
        print(f"degradation report written to {path}")
        if not report.claim_holds:
            return 1
    return 0 if suite.all_passed else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.summarize import summarize_file

    try:
        report = summarize_file(
            args.trace,
            top_spans=args.top_spans,
            max_series=args.max_series,
            top_kinds=args.top,
        )
    except (OSError, ValueError) as exc:  # missing, empty or corrupt trace
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet.cli import run as run_fleet_cli

    return run_fleet_cli(args)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run as run_lint

    return run_lint(args)


#: Subcommands whose seed sweeps go through ``runner.run_jobs``.
_SWEEP_COMMANDS = frozenset({"figure", "table", "prop", "suite"})


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command in _SWEEP_COMMANDS:
        try:
            default_n_jobs()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    handlers = {
        "run": _cmd_run,
        "figure": _cmd_figure,
        "table": _cmd_table,
        "prop": _cmd_prop,
        "suite": _cmd_suite,
        "attack": _cmd_attack,
        "obs": _cmd_obs,
        "fleet": _cmd_fleet,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout consumer went away (e.g. `repro obs summarize | head`);
        # detach so the interpreter's exit flush doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
