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
    """Everything one lint run produced."""

    #: Findings not silenced inline — these fail the gate.
    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by an inline ``# repro: noqa`` marker.
    suppressed: List[Finding] = field(default_factory=list)
    #: Files that failed to parse, as (path, message) pairs; always fatal.
    errors: List[Tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if (self.findings or self.errors) else 0

    def per_code(self) -> Dict[str, int]:
        return dict(sorted(Counter(f.code for f in self.findings).items()))


def render_text(report: LintReport, statistics: bool = False) -> str:
    """The default human report: one line per finding + summary."""
    lines: List[str] = []
    for path, message in report.errors:
        lines.append(f"{path}: E999 {message}")
    for f in sorted(report.findings):
        lines.append(f.render())
    if statistics and report.findings:
        lines.append("")
        lines.append("per-rule counts:")
        for code, n in report.per_code().items():
            lines.append(f"  {code:8s} {n}")
    lines.append("")
    lines.append(summary_line(report))
    return "\n".join(lines).lstrip("\n")


def summary_line(report: LintReport) -> str:
    verdict = "FAILED" if report.exit_code else "ok"
    bits = [
        f"{report.files_checked} files checked",
        f"{len(report.findings)} finding{'s' if len(report.findings) != 1 else ''}",
    ]
    if report.suppressed:
        bits.append(f"{len(report.suppressed)} suppressed")
    if report.errors:
        bits.append(f"{len(report.errors)} parse errors")
    return f"repro-lint: {', '.join(bits)} — {verdict}"


def render_json(report: LintReport) -> str:
    """Stable machine-readable report (consumed by CI annotations/tests)."""
    payload = {
        "version": 2,
        "summary": {
            "files_checked": report.files_checked,
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
            "parse_errors": len(report.errors),
            "per_code": report.per_code(),
            "exit_code": report.exit_code,
        },
        "findings": [f.to_dict() for f in sorted(report.findings)],
        "suppressed": [f.to_dict() for f in sorted(report.suppressed)],
        "errors": [{"path": p, "message": m} for p, m in report.errors],
    }
    return json.dumps(payload, indent=2)


def render(report: LintReport, fmt: str, statistics: bool = False) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "text":
        return render_text(report, statistics=statistics)
    raise ValueError(f"unknown format {fmt!r}")
