"""``repro lint`` — the determinism & layering linter CLI.

Reachable three ways, all sharing this module:

- ``repro lint ...`` / ``python -m repro lint ...`` (the main CLI
  delegates here lazily);
- ``python -m repro.analysis ...`` (stdlib-only entry, no numpy import);
- :func:`run` programmatically from tests.

Exit codes: 0 clean, 1 findings or parse errors, 2 usage errors
(unknown rule code, missing path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.pipeline import lint_paths
from repro.analysis.registry import all_rules
from repro.analysis.reporters import render


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

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such file or directory: "
            f"{', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return 2

    try:
        report = lint_paths(paths, select=select, ignore=ignore)
    except ValueError as exc:  # unknown rule code from --select/--ignore
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
        "`# repro: noqa`)."
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
