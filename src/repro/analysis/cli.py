"""``repro lint`` — the determinism & layering linter CLI.

Reachable three ways, all sharing this module:

- ``repro lint ...`` / ``python -m repro lint ...`` (the main CLI
  delegates here lazily);
- ``python -m repro.analysis ...`` (stdlib-only entry, no numpy import);
- :func:`run` programmatically from tests.

Exit codes: 0 clean (or fully baselined), 1 findings or parse errors,
2 usage errors (unknown rule code, missing baseline file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import Baseline
from repro.analysis.cache import DEFAULT_CACHE_NAME, LintCache
from repro.analysis.pipeline import default_jobs, lint_paths
from repro.analysis.registry import all_rules
from repro.analysis.reporters import render

DEFAULT_BASELINE_NAME = "lint-baseline.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` arguments to ``parser`` (shared with the main CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=f"baseline file (default: ./{DEFAULT_BASELINE_NAME} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file: report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather the current findings",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help="rewrite the baseline minus entries that no longer match "
        "anything (atomic write), then report as usual",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallelise the per-file phase over N processes "
        "(default: $REPRO_JOBS, else serial); output is byte-identical "
        "to a serial run",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help=f"per-file result cache (default: ./{DEFAULT_CACHE_NAME})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the per-file result cache for this run",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule finding counts to the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule with its rationale and exit",
    )


def _print(text: str, stream: Optional[object] = None) -> None:
    # Tolerate a closed pipe (`repro lint --list-rules | head`): report
    # output is best-effort once the reader has gone away.
    try:
        print(text, file=stream)
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass


def run(args: argparse.Namespace) -> int:
    """Execute a parsed ``lint`` invocation; returns the exit code."""
    if args.list_rules:
        _print(_render_rules())
        return 0

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None

    baseline: Optional[Baseline] = None
    baseline_path: Optional[Path] = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
            if not baseline_path.exists() and not args.update_baseline:
                print(f"error: baseline file not found: {baseline_path}",
                      file=sys.stderr)
                return 2
        else:
            default = Path(DEFAULT_BASELINE_NAME)
            baseline_path = default if (default.exists() or args.update_baseline) \
                else None
        if baseline_path is not None and baseline_path.exists():
            baseline = Baseline.load(baseline_path)

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such file or directory: "
            f"{', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return 2

    jobs = args.jobs if args.jobs is not None else default_jobs()
    cache: Optional[LintCache] = None
    if not args.no_cache:
        cache = LintCache(Path(args.cache) if args.cache else Path(DEFAULT_CACHE_NAME))

    try:
        report = lint_paths(
            paths,
            select=select,
            ignore=ignore,
            baseline=None if args.update_baseline else baseline,
            jobs=max(1, jobs),
            cache=cache,
        )
    except ValueError as exc:  # unknown rule code from --select/--ignore
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        target = baseline_path or Path(DEFAULT_BASELINE_NAME)
        Baseline.from_findings(report.new).write(target)
        print(
            f"baseline updated: {len(report.new)} finding"
            f"{'s' if len(report.new) != 1 else ''} grandfathered in {target}"
        )
        return 0

    if args.prune_baseline:
        if baseline is None or baseline_path is None:
            print(
                "error: --prune-baseline needs an existing baseline file",
                file=sys.stderr,
            )
            return 2
        pruned = baseline.without(report.stale_baseline)
        pruned.write(baseline_path)
        print(
            f"baseline pruned: {len(report.stale_baseline)} stale entr"
            f"{'y' if len(report.stale_baseline) == 1 else 'ies'} removed, "
            f"{len(pruned)} kept in {baseline_path}"
        )
        report.stale_baseline = []

    _print(render(report, args.format, statistics=args.statistics))
    return report.exit_code


def _render_rules() -> str:
    lines: List[str] = []
    for rule in all_rules():
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"    {rule.rationale}")
        lines.append("")
    lines.append(
        "suppress inline with `# repro: noqa-<CODE>` (or bare "
        "`# repro: noqa`); grandfather with `repro lint --update-baseline`."
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism & layering linter for the repro codebase",
    )
    add_lint_arguments(parser)
    return run(parser.parse_args(argv))
