"""``repro fleet ...`` subcommands.

- ``run SPEC --store DIR`` — execute (or resume) a sweep spec;
- ``show STORE`` — job-state summary and per-spec progress;
- ``query STORE`` — filter/group/aggregate the results store;
- ``export STORE`` — dump result records as JSONL or CSV;
- ``dash STORE`` — live ANSI dashboard (``--once`` for one frame);
- ``serve STORE --prometheus`` — single-threaded ``/metrics`` endpoint.

Exit codes (``EXIT_*``): 0 success, 1 any job failed, 2 the spec is
unreadable or invalid (one ``error:`` line on stderr, no store
written), 3 interrupted/incomplete (resumable — run again with the same
spec and store to continue).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import List, Mapping, Optional

EXIT_OK = 0
EXIT_FAILED_JOBS = 1
EXIT_BAD_SPEC = 2
EXIT_INTERRUPTED = 3


def add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the fleet subcommand tree to ``parser``."""
    sub = parser.add_subparsers(dest="fleet_command", required=True)

    run_p = sub.add_parser("run", help="execute (or resume) a sweep spec")
    run_p.add_argument("spec", help="sweep spec file (.json or .toml)")
    run_p.add_argument("--store", required=True, metavar="DIR",
                       help="results store directory (created if missing)")
    run_p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: $REPRO_JOBS or 1)")
    run_p.add_argument("--max-jobs", type=int, default=None, metavar="N",
                       help="stop after completing N jobs this invocation "
                            "(remaining jobs are marked resumable)")
    run_p.add_argument("--heartbeat", type=float, default=5.0, metavar="S",
                       help="seconds between per-job heartbeat events")

    show_p = sub.add_parser("show", help="summarise a results store")
    show_p.add_argument("store")

    query_p = sub.add_parser("query", help="filter/group/aggregate results")
    query_p.add_argument("store")
    query_p.add_argument("--where", action="append", default=[],
                         metavar="PATH=VALUE",
                         help="dotted-path filter, e.g. config.tau=2.0 "
                              "(repeatable; values parsed as JSON when "
                              "possible)")
    query_p.add_argument("--group-by", action="append", default=[],
                         metavar="PATH",
                         help="dotted grouping path, e.g. axes.strategy "
                              "(repeatable)")
    query_p.add_argument("--select", default="metrics.pi_mean", metavar="PATH",
                         help="numeric field to aggregate "
                              "(default: metrics.pi_mean)")
    query_p.add_argument("--agg",
                         choices=("mean", "sum", "min", "max", "count"),
                         default="mean")
    query_p.add_argument("--format", choices=("table", "json"),
                         default="table")

    export_p = sub.add_parser("export", help="dump result records")
    export_p.add_argument("store")
    export_p.add_argument("--out", "-o", default=None, metavar="PATH",
                          help="output path (default: stdout)")
    export_p.add_argument("--format", choices=("jsonl", "csv"),
                          default="jsonl")

    dash_p = sub.add_parser("dash", help="live terminal dashboard")
    dash_p.add_argument("store")
    dash_p.add_argument("--interval", type=float, default=1.0, metavar="S")
    dash_p.add_argument("--once", action="store_true",
                        help="render one frame to stdout and exit")

    serve_p = sub.add_parser("serve", help="serve aggregated metrics over HTTP")
    serve_p.add_argument("store")
    serve_p.add_argument("--prometheus", action="store_true",
                         help="text exposition format at /metrics (the only "
                              "format; the flag documents intent)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=9464)


def _parse_where(clauses: List[str]) -> Mapping[str, object]:
    where = {}
    for clause in clauses:
        if "=" not in clause:
            raise SystemExit(f"--where expects PATH=VALUE, got {clause!r}")
        path, raw = clause.split("=", 1)
        try:
            where[path] = json.loads(raw)
        except json.JSONDecodeError:
            where[path] = raw
    return where


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.fleet.executor import run_fleet
    from repro.fleet.spec import load_spec
    from repro.fleet.store import FleetStore

    try:
        jobs = load_spec(args.spec).expand()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    store = FleetStore(args.store)
    outcome = run_fleet(
        jobs,
        store,
        n_jobs=args.jobs,
        max_jobs=args.max_jobs,
        heartbeat=args.heartbeat,
        progress=print,
    )
    if outcome.failed:
        return EXIT_FAILED_JOBS
    if outcome.interrupted or not outcome.converged:
        return EXIT_INTERRUPTED
    return EXIT_OK


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.fleet.dash import render_dashboard
    from repro.fleet.store import FleetStore

    store = FleetStore(args.store, create=False)
    print(render_dashboard(store))
    store.write_index()
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.fleet.store import FleetStore

    store = FleetStore(args.store, create=False)
    rows = store.query(
        where=_parse_where(args.where),
        group_by=args.group_by,
        select=args.select,
        agg=args.agg,
    )
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
        return EXIT_OK
    if not rows:
        print("(no matching results)")
        return EXIT_OK
    headers = list(rows[0])
    widths = [
        max(len(h), *(len(_cell(r.get(h))) for r in rows)) for h in headers
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print(
            "  ".join(
                _cell(row.get(h)).ljust(w) for h, w in zip(headers, widths)
            )
        )
    return EXIT_OK


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.fleet.store import FleetStore

    store = FleetStore(args.store, create=False)
    records = [
        store.results[job_id] for job_id in sorted(store.results)
    ]
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        if args.format == "jsonl":
            for record in records:
                out.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            writer = csv.writer(out)
            writer.writerow(
                ["job_id", "kind", "spec", "axes", "metric", "value"]
            )
            for record in records:
                for name, value in sorted(
                    (record.get("metrics") or {}).items()
                ):
                    writer.writerow(
                        [
                            record.get("job_id"),
                            record.get("kind"),
                            record.get("spec", ""),
                            json.dumps(record.get("axes", {}), sort_keys=True),
                            name,
                            value,
                        ]
                    )
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"{len(records)} records exported to {args.out}")
    return EXIT_OK


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.fleet.dash import run_dashboard

    return run_dashboard(args.store, interval=args.interval, once=args.once)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.fleet.serve import serve_store

    return serve_store(args.store, host=args.host, port=args.port)


_HANDLERS = {
    "run": _cmd_run,
    "show": _cmd_show,
    "query": _cmd_query,
    "export": _cmd_export,
    "dash": _cmd_dash,
    "serve": _cmd_serve,
}


def run(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``repro fleet`` invocation."""
    try:
        return _HANDLERS[args.fleet_command](args)
    except BrokenPipeError:
        # stdout consumer went away (e.g. `repro fleet export | head`);
        # detach so the interpreter's exit flush doesn't raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point: ``python -m repro.fleet.cli``."""
    parser = argparse.ArgumentParser(
        prog="repro fleet", description=__doc__.splitlines()[0]
    )
    add_fleet_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
