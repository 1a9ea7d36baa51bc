"""The lint pipeline: discover files, parse once, run every rule.

``lint_paths`` is the single entry point used by the CLI, the test
suite, and CI.  Directory arguments expand to ``**/*.py`` minus the
default exclusions (fixture snippets intentionally violate rules);
explicit file arguments are always linted, which is how the fixture
tests exercise the rules on purpose-built bad files.

Since the whole-program upgrade the run has two phases:

- **phase A (per-file)**: every rule with ``requires_project = False``
  runs over one file at a time.  This phase is embarrassingly parallel
  (``jobs > 1`` fans it over a ``ProcessPoolExecutor``) and cacheable by
  content hash (:mod:`repro.analysis.cache`).  Results are keyed back to
  their discovery index, so serial and parallel runs produce
  byte-identical reports;
- **phase B (project)**: the parent process parses every file (it needs
  the ASTs regardless of what phase A cached), builds one
  :class:`repro.analysis.project.ProjectContext`, attaches it as
  ``ctx.project``, and runs the ``requires_project`` rules serially in
  display-path order.
"""

from __future__ import annotations

import concurrent.futures
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.baseline import Baseline
from repro.analysis.cache import LintCache, content_digest
from repro.analysis.context import DEFAULT_EXCLUDED_PARTS, FileContext
from repro.analysis.findings import Finding
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


def default_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (serial when unset/invalid).

    Reimplemented here rather than imported from the experiment harness:
    ``repro.analysis`` is stdlib-only and sits below everything (ARCH001).
    """
    raw = os.environ.get("REPRO_JOBS", "").strip()
    try:
        value = int(raw)
    except ValueError:
        return 1
    return value if value > 0 else 1


def lint_file(
    path: Path,
    rules: Sequence[Rule],
    root: Optional[Path] = None,
) -> "FileResult":
    """Parse one file and run every rule over it.

    Single-file entry point (fixture tests, editor integration): project
    rules see ``ctx.project is None`` and degrade to their documented
    lexical behaviour.
    """
    display = _display_path(path, root)
    try:
        source = path.read_text(encoding="utf-8")
        ctx = FileContext(path, source, display_path=display)
    except (SyntaxError, UnicodeDecodeError) as exc:
        return FileResult(display, error=f"{type(exc).__name__}: {exc}")
    result = FileResult(display)
    _run_rules_on(ctx, rules, result)
    return result


def _run_rules_on(
    ctx: FileContext, rules: Sequence[Rule], result: "FileResult"
) -> None:
    for rule in rules:
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding.code, finding.line):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)


class FileResult:
    """Findings (kept + suppressed) or the parse error."""

    def __init__(
        self,
        display_path: str,
        findings: Optional[List[Finding]] = None,
        suppressed: Optional[List[Finding]] = None,
        error: Optional[str] = None,
    ):
        self.display_path = display_path
        self.findings = findings or []
        self.suppressed = suppressed or []
        self.error = error


def _lint_file_worker(
    payload: Tuple[int, str, str, Tuple[str, ...]],
) -> Tuple[int, Optional[str], Dict[str, object]]:
    """Pool worker: run the per-file rules for one file.

    Receives and returns only plain data (paths, rule codes, finding
    dicts) so the task pickles under any start method.  Rules are
    re-instantiated from their codes inside the worker via the registry.
    """
    index, path_str, display, codes = payload
    from repro.analysis.registry import get_rule

    rules = [get_rule(code) for code in codes]
    path = Path(path_str)
    try:
        data = path.read_bytes()
        source = data.decode("utf-8")
        ctx = FileContext(path, source, display_path=display)
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        return (
            index,
            None,
            {"findings": [], "suppressed": [], "error": f"{type(exc).__name__}: {exc}"},
        )
    result = FileResult(display)
    _run_rules_on(ctx, rules, result)
    return (
        index,
        content_digest(data),
        {
            "findings": [f.to_dict() for f in result.findings],
            "suppressed": [f.to_dict() for f in result.suppressed],
            "error": None,
        },
    )


def lint_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    root: Optional[Path] = None,
    jobs: int = 1,
    cache: Optional[LintCache] = None,
) -> LintReport:
    """Lint ``paths`` and partition results against ``baseline``.

    ``jobs > 1`` parallelises the per-file phase; ``cache`` short-circuits
    unchanged files.  Serial, parallel, cached and cold runs all produce
    byte-identical reports.
    """
    rules = select_rules(select, ignore)
    per_file_rules = [r for r in rules if not r.requires_project]
    project_rules = [r for r in rules if r.requires_project]
    per_file_codes = tuple(r.code for r in per_file_rules)

    files = discover_files(paths)
    report = LintReport()
    report.files_checked = len(files)

    # Parse everything in the parent: the project phase needs every AST
    # no matter what phase A cached or farmed out.
    contexts: List[Optional[FileContext]] = []
    parse_errors: List[Optional[str]] = []
    digests: List[Optional[str]] = []
    displays: List[str] = []
    for path in files:
        display = _display_path(path, root)
        displays.append(display)
        try:
            data = path.read_bytes()
            source = data.decode("utf-8")
            ctx = FileContext(path, source, display_path=display)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            contexts.append(None)
            digests.append(None)
            parse_errors.append(f"{type(exc).__name__}: {exc}")
            continue
        contexts.append(ctx)
        digests.append(content_digest(data))
        parse_errors.append(None)

    # Phase A: per-file rules (cacheable, parallelisable).
    results: List[Optional[Dict[str, object]]] = [None] * len(files)
    pending: List[int] = []
    for i in range(len(files)):
        if parse_errors[i] is not None:
            results[i] = {
                "findings": [],
                "suppressed": [],
                "error": parse_errors[i],
            }
            continue
        if cache is not None and digests[i] is not None:
            hit = cache.get(displays[i], digests[i], list(per_file_codes))
            if hit is not None:
                results[i] = hit
                continue
        pending.append(i)

    if pending:
        if jobs > 1:
            _run_phase_a_parallel(
                files, displays, per_file_codes, pending, results, jobs
            )
        else:
            for i in pending:
                result = FileResult(displays[i])
                _run_rules_on(contexts[i], per_file_rules, result)
                results[i] = {
                    "findings": [f.to_dict() for f in result.findings],
                    "suppressed": [f.to_dict() for f in result.suppressed],
                    "error": None,
                }
        if cache is not None:
            for i in pending:
                if digests[i] is not None and results[i] is not None:
                    entry = results[i]
                    cache.put(
                        displays[i],
                        digests[i],
                        list(per_file_codes),
                        list(entry["findings"]),  # type: ignore[arg-type]
                        list(entry["suppressed"]),  # type: ignore[arg-type]
                        entry["error"],  # type: ignore[arg-type]
                    )

    all_findings: List[Finding] = []
    for i in range(len(files)):
        entry = results[i]
        if entry is None:  # a worker died; treat as an analysis error
            report.errors.append((displays[i], "per-file analysis failed"))
            continue
        if entry.get("error"):
            report.errors.append((displays[i], str(entry["error"])))
            continue
        all_findings.extend(Finding.from_dict(d) for d in entry["findings"])
        report.suppressed.extend(Finding.from_dict(d) for d in entry["suppressed"])

    # Phase B: whole-program rules, serial, in the parent.
    parsed = [ctx for ctx in contexts if ctx is not None]
    if project_rules and parsed:
        from repro.analysis.project import ProjectContext

        project = ProjectContext(parsed)
        for ctx in parsed:
            ctx.project = project
        for ctx in sorted(parsed, key=lambda c: c.display_path):
            result = FileResult(ctx.display_path)
            _run_rules_on(ctx, project_rules, result)
            all_findings.extend(result.findings)
            report.suppressed.extend(result.suppressed)

    if baseline is not None:
        report.new, report.baselined, report.stale_baseline = baseline.partition(
            all_findings
        )
    else:
        report.new = sorted(all_findings)
    if cache is not None:
        cache.write()
    return report


def _run_phase_a_parallel(
    files: Sequence[Path],
    displays: Sequence[str],
    codes: Tuple[str, ...],
    pending: Sequence[int],
    results: List[Optional[Dict[str, object]]],
    jobs: int,
) -> None:
    """Fan the pending per-file work over a process pool.

    Results slot back into ``results`` by discovery index, so downstream
    ordering (and therefore report bytes) cannot depend on completion
    order.  A crashed worker leaves its slot as None, reported as an
    analysis error rather than silently dropped.
    """
    payloads = [(i, str(files[i]), displays[i], codes) for i in pending]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_lint_file_worker, payload) for payload in payloads]
        for future in concurrent.futures.as_completed(futures):
            try:
                index, _digest, entry = future.result()
            except Exception:  # noqa: BLE001 - worker crash -> error slot
                continue
            results[index] = entry


def _display_path(path: Path, root: Optional[Path]) -> str:
    """Repo-relative posix path when possible (stable across machines)."""
    resolved = path.resolve()
    for base in ([root.resolve()] if root is not None else []) + [Path.cwd()]:
        try:
            return resolved.relative_to(base).as_posix()
        except ValueError:
            continue
    return path.as_posix()
