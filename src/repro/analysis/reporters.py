"""Finding reporters: human text and machine JSON.

Both reporters consume the same :class:`LintReport` produced by the
pipeline, so the exit-code logic and the rendering cannot disagree about
what counts as a failure.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.findings import Finding


@dataclass
class LintReport:
    """Everything one lint run produced, pre-partitioned."""

    #: Findings not covered by the baseline — these fail the gate.
    new: List[Finding] = field(default_factory=list)
    #: Findings matched (and absorbed) by the baseline.
    baselined: List[Finding] = field(default_factory=list)
    #: Findings silenced by an inline ``# repro: noqa`` marker.
    suppressed: List[Finding] = field(default_factory=list)
    #: Baseline entries that matched nothing (candidates for removal).
    stale_baseline: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Files that failed to parse, as (path, message) pairs; always fatal.
    errors: List[Tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if (self.new or self.errors) else 0

    def per_code(self) -> Dict[str, int]:
        return dict(sorted(Counter(f.code for f in self.new).items()))


def render_text(report: LintReport, statistics: bool = False) -> str:
    """The default human report: one line per new finding + summary."""
    lines: List[str] = []
    for path, message in report.errors:
        lines.append(f"{path}: E999 {message}")
    for f in sorted(report.new):
        lines.append(f.render())
    if statistics and report.new:
        lines.append("")
        lines.append("per-rule counts:")
        for code, n in report.per_code().items():
            lines.append(f"  {code:8s} {n}")
    if report.stale_baseline:
        lines.append("")
        lines.append(
            f"note: {len(report.stale_baseline)} stale baseline entr"
            f"{'y' if len(report.stale_baseline) == 1 else 'ies'} no longer "
            "match anything — run `repro lint --update-baseline` to drop:"
        )
        for path, code, message in report.stale_baseline:
            lines.append(f"  {path}: {code} {message}")
    lines.append("")
    lines.append(summary_line(report))
    return "\n".join(lines).lstrip("\n")


def summary_line(report: LintReport) -> str:
    verdict = "FAILED" if report.exit_code else "ok"
    bits = [
        f"{report.files_checked} files checked",
        f"{len(report.new)} finding{'s' if len(report.new) != 1 else ''}",
    ]
    if report.baselined:
        bits.append(f"{len(report.baselined)} baselined")
    if report.suppressed:
        bits.append(f"{len(report.suppressed)} suppressed")
    if report.errors:
        bits.append(f"{len(report.errors)} parse errors")
    return f"repro-lint: {', '.join(bits)} — {verdict}"


def render_json(report: LintReport) -> str:
    """Stable machine-readable report (consumed by CI annotations/tests)."""
    payload = {
        "version": 1,
        "summary": {
            "files_checked": report.files_checked,
            "findings": len(report.new),
            "baselined": len(report.baselined),
            "suppressed": len(report.suppressed),
            "parse_errors": len(report.errors),
            "per_code": report.per_code(),
            "exit_code": report.exit_code,
        },
        "findings": [f.to_dict() for f in sorted(report.new)],
        "baselined": [f.to_dict() for f in sorted(report.baselined)],
        "suppressed": [f.to_dict() for f in sorted(report.suppressed)],
        "stale_baseline": [
            {"path": p, "code": c, "message": m} for p, c, m in report.stale_baseline
        ],
        "errors": [{"path": p, "message": m} for p, m in report.errors],
    }
    return json.dumps(payload, indent=2)


def render(report: LintReport, fmt: str, statistics: bool = False) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "text":
        return render_text(report, statistics=statistics)
    raise ValueError(f"unknown format {fmt!r}")
