"""``repro fleet ...`` subcommands.

- ``run SPEC --store DIR`` — execute (or resume) a sweep spec;
- ``show STORE`` — job-state summary and per-spec progress;
- ``query STORE`` — filter/group/aggregate the results store;
- ``export STORE`` — dump result records as JSONL or CSV.

Exit codes (``EXIT_*``): 0 success, 1 any job failed, 2 bad input — an
unreadable or invalid spec, no store at the given path, a malformed
``--where`` clause or an ``--out`` file that cannot be created (one
``error:`` line on stderr, nothing written), 3
interrupted/incomplete (resumable — run again with the same spec and
store to continue).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import List, Mapping, Optional

from repro.fleet.store import FleetStore

EXIT_OK = 0
EXIT_FAILED_JOBS = 1
EXIT_BAD_INPUT = 2
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


def _parse_where(clauses: List[str]) -> Mapping[str, object]:
    where = {}
    for clause in clauses:
        if "=" not in clause:
            raise ValueError(f"--where expects PATH=VALUE, got {clause!r}")
        path, raw = clause.split("=", 1)
        try:
            where[path] = json.loads(raw)
        except json.JSONDecodeError:
            where[path] = raw
    return where


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.fleet.executor import run_fleet
    from repro.fleet.spec import load_spec

    try:
        jobs = load_spec(args.spec).expand()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
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


def _open_store(path: str) -> Optional[FleetStore]:
    """The store at ``path``, or None after one ``error:`` line if there is none."""
    try:
        return FleetStore(path, create=False)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.fleet.dash import render_dashboard

    store = _open_store(args.store)
    if store is None:
        return EXIT_BAD_INPUT
    print(render_dashboard(store))
    store.write_index()
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if store is None:
        return EXIT_BAD_INPUT
    try:
        where = _parse_where(args.where)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    rows = store.query(
        where=where,
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
    store = _open_store(args.store)
    if store is None:
        return EXIT_BAD_INPUT
    records = [
        store.results[job_id] for job_id in sorted(store.results)
    ]
    out = sys.stdout
    if args.out:
        try:
            out = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
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


_HANDLERS = {
    "run": _cmd_run,
    "show": _cmd_show,
    "query": _cmd_query,
    "export": _cmd_export,
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
