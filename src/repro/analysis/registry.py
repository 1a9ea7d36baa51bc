"""Rule base class and registry.

Rules self-register at import time via the :func:`register` decorator;
``repro.analysis.rules`` imports every rule module so building the
default rule set is just :func:`all_rules`.  The registry is keyed by
code (``DET001``) and rejects duplicates, so a typo'd copy-paste fails
fast instead of shadowing an existing rule.
"""

from __future__ import annotations

import abc
import ast
from typing import Dict, Iterable, Iterator, List, Optional

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding


class Rule(abc.ABC):
    """One lint rule: a code, a human rationale, and a per-file check.

    ``check`` yields findings for a single :class:`FileContext`; the
    pipeline handles suppression and reporting.  Rules are
    stateless — one shared instance serves every file.
    """

    #: Stable identifier, e.g. ``DET001`` (used in noqa markers).
    code: str = ""
    #: Short name, e.g. ``unseeded-random``.
    name: str = ""
    #: One-paragraph determinism/architecture rationale (shown by
    #: ``repro lint --list-rules`` and quoted in docs).
    rationale: str = ""
    #: Project-aware rules consult ``ctx.project`` (the whole-program
    #: graph) and run after every file is parsed; per-file rules run as
    #: each file is parsed, before the project exists.  A
    #: project-aware rule must degrade gracefully when ``ctx.project``
    #: is ``None`` (a FileContext checked outside ``lint_paths``).
    requires_project: bool = False

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one parsed file."""

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``'s location."""
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator: instantiate ``cls`` and add it to the registry."""
    rule = cls()
    if not rule.code or not rule.name:
        raise ValueError(f"rule {cls.__name__} must define code and name")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code (stable report order)."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """The rule set after ``--select`` / ``--ignore`` filtering.

    Unknown codes raise ``ValueError`` — a misspelt selection silently
    linting nothing is worse than an error.
    """
    _ensure_loaded()
    known = set(_REGISTRY)
    chosen = set(select) if select else set(known)
    unknown = chosen - known
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    if ignore:
        bad = set(ignore) - known
        if bad:
            raise ValueError(f"unknown rule code(s): {', '.join(sorted(bad))}")
        chosen -= set(ignore)
    return [_REGISTRY[code] for code in sorted(chosen)]


def _ensure_loaded() -> None:
    # Deferred so registry.py itself stays import-cycle free; the rules
    # package imports this module for the decorator.
    import repro.analysis.rules  # noqa: F401  (registration side effect)
