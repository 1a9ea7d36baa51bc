"""``repro.analysis`` — AST-based determinism & layering linter.

A stdlib-only static-analysis framework purpose-built for this repo's
reproducibility invariants: a rule registry (:mod:`registry`), a
per-file visitor pipeline (:mod:`pipeline`), inline ``# repro: noqa-XXX``
suppressions (:mod:`context`) and text/JSON reporters (:mod:`reporters`),
exposed as ``repro lint`` / ``python -m repro lint`` /
``python -m repro.analysis``.  Every finding fails the gate unless a
``noqa`` marker on its line silences it.

Being stdlib-only is load-bearing twice over: the linter runs before the
scientific stack imports (so it can gate environments where numpy is
missing or broken), and it sits at the bottom of the layering it
enforces — ARCH001 holds this package to the same standard.
"""

from repro.analysis.context import FileContext, module_name_for, parse_noqa
from repro.analysis.findings import Finding
from repro.analysis.pipeline import discover_files, lint_file, lint_paths
from repro.analysis.registry import Rule, all_rules, get_rule, register, rule_codes
from repro.analysis.reporters import LintReport, render, render_json, render_text

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "discover_files",
    "get_rule",
    "lint_file",
    "lint_paths",
    "module_name_for",
    "parse_noqa",
    "register",
    "render",
    "render_json",
    "render_text",
    "rule_codes",
]
