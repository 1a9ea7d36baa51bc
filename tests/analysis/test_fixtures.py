"""Golden tests: every fixture snippet produces exactly its expected findings.

Each ``<name>.py`` under ``fixtures/`` is paired with
``<name>.expected.json`` listing the (code, line) of every finding and
every noqa-suppressed finding.  The fixtures are laid out as a miniature
``repro/`` tree so module-scoped rules (DET002's sim-path scope,
ARCH001's layer map) resolve exactly as they do against ``src/``.

``fixtures/project/`` is a separate multi-module tree for the
whole-program rules: it is linted through ``lint_paths`` (which builds a
ProjectContext) against one combined golden, and excluded from the
per-file lane — single-file linting deliberately degrades the
project-aware rules.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_file
from repro.analysis.pipeline import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
PROJECT_FIXTURES = FIXTURES / "project"
FIXTURE_FILES = sorted(
    p
    for p in FIXTURES.rglob("*.py")
    if "project" not in p.relative_to(FIXTURES).parts
)


def _ids(paths):
    return [p.relative_to(FIXTURES).as_posix() for p in paths]


@pytest.mark.parametrize("fixture", FIXTURE_FILES, ids=_ids(FIXTURE_FILES))
def test_fixture_matches_golden(fixture):
    golden_path = fixture.with_suffix(".expected.json")
    assert golden_path.exists(), (
        f"fixture {fixture.name} has no golden; add {golden_path.name}"
    )
    golden = json.loads(golden_path.read_text())

    result = lint_file(fixture, all_rules())
    assert result.error is None, result.error

    got = [{"code": f.code, "line": f.line} for f in sorted(result.findings)]
    got_suppressed = [
        {"code": f.code, "line": f.line} for f in sorted(result.suppressed)
    ]
    assert got == golden["findings"]
    assert got_suppressed == golden["suppressed"]


def test_project_fixture_matches_golden():
    """The multi-module tree produces exactly the project-lane golden.

    Runs the project-aware rules through ``lint_paths`` (ProjectContext
    built, cross-file call edges resolved) and compares findings and
    suppressions against one combined golden.
    """
    golden = json.loads((PROJECT_FIXTURES / "project.expected.json").read_text())
    files = sorted(PROJECT_FIXTURES.rglob("*.py"))
    report = lint_paths(files, select=golden["select"], root=PROJECT_FIXTURES)
    assert not report.errors, report.errors

    def slim(findings):
        return [
            {"path": f.path, "code": f.code, "line": f.line}
            for f in sorted(findings)
        ]

    assert slim(report.findings) == golden["findings"]
    assert slim(report.suppressed) == golden["suppressed"]


def test_project_rules_degrade_without_project():
    """Single-file linting of the project tree yields no project findings.

    ``lint_file`` has no ProjectContext: DET005/CONC002 must
    no-op (not crash), and CONC001 falls back to its lexical lambda
    check — the documented degraded contract.
    """
    helpers = PROJECT_FIXTURES / "repro" / "helpers.py"
    result = lint_file(helpers, all_rules())
    assert result.error is None
    assert not [f for f in result.findings if f.code in ("DET005", "CONC002")]
    runner = PROJECT_FIXTURES / "repro" / "runner.py"
    result = lint_file(runner, all_rules())
    assert result.error is None
    lexical = [f for f in result.findings if f.code == "CONC001"]
    assert [f.line for f in lexical] == [28]  # the lambda; reach needs a project


def test_every_rule_has_a_positive_fixture():
    """The fixture corpus exercises every registered rule at least once."""
    covered = set()
    for golden in FIXTURES.rglob("*.expected.json"):
        data = json.loads(golden.read_text())
        covered.update(e["code"] for e in data["findings"] + data["suppressed"])
    missing = {rule.code for rule in all_rules()} - covered
    assert not missing, f"rules without a positive fixture: {sorted(missing)}"


def test_fixture_modules_resolve_inside_repro_tree():
    """The mini-tree anchors at ``repro``: scoped rules see real modules."""
    from repro.analysis import module_name_for

    assert (
        module_name_for(FIXTURES / "repro" / "core" / "det002_clock.py")
        == "repro.core.det002_clock"
    )
    assert module_name_for(FIXTURES / "repro" / "sim" / "rng.py") == "repro.sim.rng"
