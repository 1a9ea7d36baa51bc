"""Finding model for the ``repro.analysis`` linter.

A :class:`Finding` is one rule violation at one source location.  Findings
are value objects: the pipeline produces them, the inline-suppression
layer filters them, and the reporters render them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location.

    Ordering is (path, line, col, code) so reports read in file order.
    """

    path: str
    line: int
    col: int
    code: str
    message: str = field(compare=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (used by the JSON reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    def render(self) -> str:
        """``path:line:col: CODE message`` — the text-report line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
