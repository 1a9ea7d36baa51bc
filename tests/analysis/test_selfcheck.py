"""Self-check lane: the shipped tree lints clean, and seeded mutations fail.

The mutation test is the linter's acceptance gate: a scratch copy of
``routing.py`` gets a wall-clock read and an unordered-set draw injected
at known lines, and the lint run must exit non-zero pointing at exactly
those lines.  That proves the rules fire on real production code, not
just on hand-built fixtures.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parents[2]
SRC = REPO_ROOT / "src"


def run_lint(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


@pytest.mark.lint
def test_shipped_tree_is_clean():
    proc = run_lint(str(SRC), str(REPO_ROOT / "tests"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.lint
def test_no_finding_is_suppressed():
    # The tree is clean without waivers: no finding anywhere is waved
    # through with an inline noqa.
    proc = run_lint("--format", "json", str(SRC), str(REPO_ROOT / "tests"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["suppressed"] == []


@pytest.mark.lint
def test_whole_tree_run_leaves_working_directory_unchanged(tmp_path):
    # The linter is read-only: a run writes nothing beside its report,
    # so an empty working directory stays empty.
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(SRC), str(REPO_ROOT / "tests")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.lint
def test_seeded_mutation_is_caught(tmp_path):
    # Copy routing.py into a scratch repro/core/ tree (so it lints under its
    # real module name), append a function with a wall-clock read (DET002)
    # and a draw over a set literal (DET003), and demand findings at exactly
    # the injected lines.
    original = SRC / "repro" / "core" / "routing.py"
    source = original.read_text()
    base_len = source.count("\n")

    poison = (
        "\n\ndef _mutated_probe(rng):\n"
        "    import time\n"
        "    t0 = time.time()\n"
        "    pick = rng.choice(list({1, 2, 3}))\n"
        "    return t0, pick\n"
    )
    # The file ends in a newline, so poison's two leading "\n" are blank
    # lines base_len+1/+2, def is +3, import +4, time.time() +5, draw +6.
    wall_clock_line = base_len + 5
    set_draw_line = base_len + 6

    scratch = tmp_path / "repro" / "core"
    scratch.mkdir(parents=True)
    target = scratch / "routing.py"
    target.write_text(source + poison)

    proc = run_lint(str(target))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"routing.py:{wall_clock_line}" in proc.stdout
    assert f"routing.py:{set_draw_line}" in proc.stdout
    assert "DET002" in proc.stdout
    assert "DET003" in proc.stdout


@pytest.mark.lint
def test_seeded_unpicklable_submission_mutation_is_caught(tmp_path):
    # Whole-program lane: a top-level worker that reads a module-level file
    # handle is submitted to a ProcessPoolExecutor.  The hazard is the
    # *reach* (worker -> ambient handle), not anything lexical at the
    # submit site, so this only trips with the project call graph built.
    original = SRC / "repro" / "core" / "routing.py"
    source = original.read_text()
    base_len = source.count("\n")

    poison = (
        "\n\nfrom concurrent.futures import ProcessPoolExecutor"
        " as _MutatedPool\n"
        '_MUTATED_TRACE = open("trace.log", "a")\n'
        "\n"
        "\ndef _mutated_worker(job):\n"
        '    _MUTATED_TRACE.write(f"{job}\\n")\n'
        "    return job\n"
        "\n"
        "\ndef _mutated_fanout(jobs):\n"
        "    pool = _MutatedPool()\n"
        "    return [pool.submit(_mutated_worker, j) for j in jobs]\n"
    )
    # Blanks +1/+2, import +3, open() +4, blank +5/+6, def worker +7,
    # write +8, return +9, blanks +10/+11, def fanout +12, ctor +13,
    # the submit comprehension +14.
    submit_line = base_len + 14

    scratch = tmp_path / "repro" / "core"
    scratch.mkdir(parents=True)
    target = scratch / "routing.py"
    target.write_text(source + poison)

    proc = run_lint(str(target))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"routing.py:{submit_line}" in proc.stdout
    assert "CONC001" in proc.stdout
    assert "_MUTATED_TRACE" in proc.stdout


@pytest.mark.lint
def test_unmutated_copy_of_same_file_is_clean(tmp_path):
    # Control for the mutation test: the pristine copy lints clean, so the
    # failures above are attributable to the injected lines alone.
    original = SRC / "repro" / "core" / "routing.py"
    scratch = tmp_path / "repro" / "core"
    scratch.mkdir(parents=True)
    shutil.copy(original, scratch / "routing.py")
    proc = run_lint(str(scratch / "routing.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
