"""Compare a parent and a change result set of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Result sets are what ``run.py --out FILE`` writes.  The i-th untraced
run of a workload on each side forms pair i, so both sides must hold
the same workloads with the same ``--seed`` sequence and ``run_seconds``.
For the claim rule the pairs must be alternated: build each set one run
at a time with ``run.py --seed I --out FILE --append``, switching
between the two commits (and which of them goes first) after every run.
For every (end-to-end metric, workload) the verdict is

``unresolved``  the run-to-run spread (IQR / median, either side) is
                wider than the metric's bound, and not every change run
                reads better than every parent run;
``regression``  the change's median is worse than the parent's by more
                than the bound in ``BENCHMARK.json``;
``improved``    the claim rule holds: at least 10 pairs, the change wins
                at least 9/10 of them (ties count for neither), and the
                medians differ by more than the parent's IQR;
``ok``          none of these.

Exit status: 0 without regressions, 1 with any, 2 when the comparison
is refused (different machines, run lengths or seeds, incorrect runs,
unreadable input).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Sequence, Tuple

from stats import iqr

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Two result sets are comparable only if all of these agree.
MACHINE_KEYS = ("cpu_model", "nproc", "python", "numpy")
MIN_PAIRS = 10
WIN_SHARE = 0.9


class Refused(Exception):
    """The two result sets cannot be compared."""


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> Dict:
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = median(parent), median(change)
    # Positive means the change is worse, as a share of the parent median.
    worse = sign * (c_med - p_med) / p_med
    spread = max(iqr(parent) / p_med, iqr(change) / c_med)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    claim = (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (p_med - c_med) > iqr(parent)
    )
    if spread > bound and not all_better:
        name = "unresolved"
    elif worse > bound:
        name = "regression"
    elif claim:
        name = "improved"
    else:
        name = "ok"
    return {
        "verdict": name,
        "parent": p_med,
        "change": c_med,
        "worse": worse,
        "spread": spread,
        "pairs": len(pairs),
        "wins": wins,
    }


def _untraced(result_set: Dict) -> Dict[str, List[Dict]]:
    runs: Dict[str, List[Dict]] = {}
    for run in result_set["runs"]:
        if not run["trace"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def compare_sets(parent: Dict, change: Dict, bench: Dict) -> List[Tuple[str, str, Dict]]:
    """(workload, metric, verdict) rows; raises :class:`Refused`."""
    differ = [
        k for k in MACHINE_KEYS if parent["machine"].get(k) != change["machine"].get(k)
    ]
    if differ:
        raise Refused(
            "results come from different machines: "
            + ", ".join(
                f"{k} {parent['machine'].get(k)!r} vs {change['machine'].get(k)!r}"
                for k in differ
            )
        )
    if parent["run_seconds"] != change["run_seconds"]:
        raise Refused(
            f"run_seconds differ: {parent['run_seconds']} vs {change['run_seconds']}"
        )
    for label, result_set in (("parent", parent), ("change", change)):
        bad = [r for r in result_set["runs"] if not r["correct"]]
        if bad:
            raise Refused(f"{label} has {len(bad)} incorrect run(s), e.g. {bad[0]['workload']}")
    p_runs, c_runs = _untraced(parent), _untraced(change)
    for workload in sorted(set(p_runs) | set(c_runs)):
        p_seeds = [r["seed"] for r in p_runs.get(workload, [])]
        c_seeds = [r["seed"] for r in c_runs.get(workload, [])]
        if p_seeds != c_seeds:
            raise Refused(f"{workload}: parent ran seeds {p_seeds}, change {c_seeds}")
    rows = []
    for workload in sorted(p_runs):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            rows.append(
                (
                    workload,
                    name,
                    verdict(
                        [r["metrics"][name]["value"] for r in p_runs[workload]],
                        [r["metrics"][name]["value"] for r in c_runs[workload]],
                        metric["better"],
                        metric["bound"],
                    ),
                )
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(BENCHMARK))
    args = parser.parse_args(argv)
    try:
        with open(args.benchmark, encoding="utf-8") as fh:
            bench = json.load(fh)
        with open(args.parent, encoding="utf-8") as fh:
            parent = json.load(fh)
        with open(args.change, encoding="utf-8") as fh:
            change = json.load(fh)
        rows = compare_sets(parent, change, bench)
    except (OSError, KeyError, json.JSONDecodeError, Refused) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(
        f"{'workload':<16} {'metric':<14} {'parent':>11} {'change':>11} "
        f"{'worse':>8} {'spread':>8} {'wins':>7}  verdict"
    )
    for workload, metric, v in rows:
        print(
            f"{workload:<16} {metric:<14} {v['parent']:>11.5g} {v['change']:>11.5g} "
            f"{v['worse']:>8.2%} {v['spread']:>8.2%} {v['wins']:>3}/{v['pairs']:<3}  {v['verdict']}"
        )
    return 1 if any(v["verdict"] == "regression" for _w, _m, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
