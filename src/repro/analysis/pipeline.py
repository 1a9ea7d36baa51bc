"""The lint pipeline: discover files, parse once, run every rule.

``lint_paths`` is the single entry point used by the CLI, the test
suite, and CI.  Directory arguments expand to ``**/*.py`` minus the
default exclusions (fixture snippets intentionally violate rules);
explicit file arguments are always linted, which is how the fixture
tests exercise the rules on purpose-built bad files.

One serial pass: parse every file and run the per-file rules
(``requires_project = False``) over it, then build one
:class:`repro.analysis.project.ProjectContext` from every parsed file,
attach it as ``ctx.project``, and run the ``requires_project`` rules in
display-path order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.analysis.context import DEFAULT_EXCLUDED_PARTS, FileContext
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.registry import Rule, select_rules
from repro.analysis.reporters import LintReport


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Python files under ``paths``, stable-sorted, exclusions applied.

    Explicitly named files bypass the exclusion list; directories are
    walked recursively.
    """
    out: List[Path] = []
    seen = set()
    for path in paths:
        if path.is_file():
            candidates: Iterable[Path] = [path]
            explicit = True
        else:
            candidates = sorted(path.rglob("*.py"))
            explicit = False
        for cand in candidates:
            if not explicit and any(
                part in DEFAULT_EXCLUDED_PARTS for part in cand.parts
            ):
                continue
            key = cand.resolve()
            if key in seen:
                continue
            seen.add(key)
            out.append(cand)
    return out


def _parse(path: Path, display: str) -> FileContext:
    return FileContext(path, path.read_bytes().decode("utf-8"), display_path=display)


def _run_rules_on(
    ctx: FileContext,
    rules: Sequence[Rule],
    findings: List[Finding],
    suppressed: List[Finding],
) -> None:
    for rule in rules:
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding.code, finding.line):
                suppressed.append(finding)
            else:
                findings.append(finding)


def lint_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
) -> LintReport:
    """Lint ``paths``: the per-file rules file by file, then the project rules."""
    rules = select_rules(select, ignore)
    per_file_rules = [r for r in rules if not r.requires_project]
    project_rules = [r for r in rules if r.requires_project]

    files = discover_files(paths)
    report = LintReport(files_checked=len(files))
    parsed: List[FileContext] = []
    for path in files:
        display = _display_path(path, root)
        try:
            ctx = _parse(path, display)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            report.errors.append((display, f"{type(exc).__name__}: {exc}"))
            continue
        parsed.append(ctx)
        _run_rules_on(ctx, per_file_rules, report.findings, report.suppressed)

    if project_rules and parsed:
        project = ProjectContext(parsed)
        for ctx in parsed:
            ctx.project = project
        for ctx in sorted(parsed, key=lambda c: c.display_path):
            _run_rules_on(ctx, project_rules, report.findings, report.suppressed)

    report.findings.sort()
    return report


def _display_path(path: Path, root: Optional[Path]) -> str:
    """Repo-relative posix path when possible (stable across machines)."""
    resolved = path.resolve()
    for base in ([root.resolve()] if root is not None else []) + [Path.cwd()]:
        try:
            return resolved.relative_to(base).as_posix()
        except ValueError:
            continue
    return path.as_posix()
