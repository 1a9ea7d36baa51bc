"""Per-file lint context: source, AST, module name, suppressions, imports.

One :class:`FileContext` is built per linted file and handed to every
rule.  Expensive derived structures (the parsed tree, the alias map of
imports, the ``# repro: noqa`` line map) are computed once here rather
than per rule.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Optional, Set

#: ``# repro: noqa`` (all rules) or ``# repro: noqa-DET001`` /
#: ``# repro: noqa-DET001,ARCH001`` (specific codes) on the flagged line.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:-(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?",
)

#: Directory names skipped when expanding directory arguments.  Fixture
#: snippets *intentionally* violate the rules, so they are only linted
#: when named explicitly on the command line.
DEFAULT_EXCLUDED_PARTS = frozenset(
    {"fixtures", "__pycache__", ".git", ".venv", "build", "dist", ".eggs"}
)

#: Sentinel stored in the noqa map for a bare ``# repro: noqa``.
ALL_CODES = "*"


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``, anchored at the package root.

    The last path component named ``repro`` (or, failing that, ``tests`` /
    ``benchmarks`` / ``examples``) anchors the name, so both
    ``src/repro/core/routing.py`` and a scratch copy at
    ``/tmp/xyz/repro/core/routing.py`` resolve to ``repro.core.routing``.
    Files outside any known root lint under their bare stem.
    """
    parts = list(path.parts)
    stem = path.stem
    if parts:
        parts[-1] = stem
    if stem == "__init__" and len(parts) > 1:
        parts.pop()
    for anchor in ("repro", "tests", "benchmarks", "examples"):
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == anchor:
                return ".".join(parts[i:])
    return stem


def parse_noqa(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line number -> set of suppressed codes.

    A bare ``# repro: noqa`` suppresses every rule on that line and is
    recorded as the :data:`ALL_CODES` sentinel.  The scan is a per-line
    regex, so a marker inside a string literal is honoured too — an
    accepted imprecision for a comment convention this explicit.
    """
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(line)
        if not m:
            continue
        codes = m.group("codes")
        if codes:
            out[lineno] = {c.strip() for c in codes.split(",")}
        else:
            out[lineno] = {ALL_CODES}
    return out


class FileContext:
    """Everything a rule may consult about one file.

    Attributes are plain data; ``tree`` is parsed eagerly so a syntax
    error surfaces as one E999-style finding before any rule runs (see
    the pipeline).
    """

    def __init__(self, path: Path, source: str, display_path: Optional[str] = None):
        self.path = path
        #: Path as shown in findings (repo-relative when possible).
        self.display_path = display_path or str(path)
        self.source = source
        self.lines = source.splitlines()
        self.module = module_name_for(path)
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.noqa = parse_noqa(source)
        #: Whole-program view, set by the pipeline's project phase (None
        #: for a context checked outside ``lint_paths``).  Typed
        #: loosely to keep this module import-light; it is a
        #: ``repro.analysis.project.ProjectContext`` when present.
        self.project: Optional[object] = None
        self._imports: Optional[Dict[str, str]] = None

    @property
    def imports(self) -> Dict[str, str]:
        """Local alias -> fully qualified imported name.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        perf_counter as pc`` maps ``pc -> time.perf_counter``; ``import
        repro.obs.events`` maps ``repro -> repro`` (attribute chains are
        resolved against this by the AST helpers).
        """
        if self._imports is None:
            aliases: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        target = alias.name if alias.asname else alias.name.split(".")[0]
                        aliases[local] = target
                elif isinstance(node, ast.ImportFrom):
                    if node.level:  # relative import: resolve inside repro only
                        base = self._resolve_relative(node)
                    else:
                        base = node.module or ""
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        local = alias.asname or alias.name
                        aliases[local] = f"{base}.{alias.name}" if base else alias.name
            self._imports = aliases
        return self._imports

    def _resolve_relative(self, node: ast.ImportFrom) -> str:
        parts = self.module.split(".")
        # A module's package is its parents; ``from . import x`` in
        # pkg/mod.py resolves against pkg.
        pkg = parts[: len(parts) - 1] if parts else []
        up = node.level - 1
        if up:
            pkg = pkg[: len(pkg) - up]
        base = ".".join(pkg)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    def is_suppressed(self, code: str, line: int) -> bool:
        codes = self.noqa.get(line)
        if not codes:
            return False
        return ALL_CODES in codes or code in codes
