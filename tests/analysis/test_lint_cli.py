"""CLI and reporter tests for ``repro lint``."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main

DIRTY = textwrap.dedent(
    """\
    import time


    def stamp():
        return time.time()
    """
)


def write_module(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_module(tmp_path, "repro/core/ok.py", "X = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_finding_exits_one_with_location(self, tmp_path, capsys):
        write_module(tmp_path, "repro/core/bad.py", DIRTY)
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:5" in out and "DET002" in out

    def test_json_format(self, tmp_path, capsys):
        write_module(tmp_path, "repro/core/bad.py", DIRTY)
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1
        assert payload["summary"]["per_code"] == {"DET002": 1}
        (finding,) = payload["findings"]
        assert finding["code"] == "DET002" and finding["line"] == 5

    def test_select_and_ignore(self, tmp_path):
        write_module(tmp_path, "repro/core/bad.py", DIRTY)
        args = [str(tmp_path)]
        assert lint_main(args + ["--select", "DET001"]) == 0
        assert lint_main(args + ["--ignore", "DET002"]) == 0
        assert lint_main(args + ["--select", "DET002"]) == 1

    def test_unknown_rule_code_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "DET999"]) == 2
        assert "DET999" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET004", "ARCH001", "PERF002"):
            assert code in out

    def test_syntax_error_reported_not_crash(self, tmp_path, capsys):
        write_module(tmp_path, "repro/core/broken.py", "def f(:\n")
        assert lint_main([str(tmp_path)]) == 1
        assert "SyntaxError" in capsys.readouterr().out


def test_serial_run_is_repeatable_and_sees_both_rule_lanes(tmp_path, capsys):
    # One pass reports the per-file lane (DET002) and the project lane
    # (CONC001) together, and a second run prints the same bytes.
    write_module(tmp_path, "repro/core/clock.py", DIRTY)
    write_module(
        tmp_path,
        "repro/core/fanout.py",
        textwrap.dedent(
            """\
            from concurrent.futures import ProcessPoolExecutor


            def launch(jobs):
                pool = ProcessPoolExecutor()
                return [pool.submit(lambda j=j: j, j) for j in jobs]
            """
        ),
    )
    assert lint_main([str(tmp_path)]) == 1
    first = capsys.readouterr().out
    assert "DET002" in first and "CONC001" in first
    assert lint_main([str(tmp_path)]) == 1
    assert capsys.readouterr().out == first


class TestEntryPoints:
    @pytest.mark.parametrize("module", ["repro.analysis", "repro"])
    def test_python_dash_m(self, module, tmp_path):
        write_module(tmp_path, "repro/core/ok.py", "X = 1\n")
        argv = [sys.executable, "-m", module]
        if module == "repro":
            argv.append("lint")
        argv.append(str(tmp_path))
        proc = subprocess.run(
            argv, capture_output=True, text=True, cwd=Path(__file__).parents[2]
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 findings" in proc.stdout
