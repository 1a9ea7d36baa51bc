"""End-to-end benchmark of the P2P anonymity simulator.

One workload, as the command in ``BENCHMARK.json`` runs it::

    python3 benchmarks/e2e/run.py --workload paper-l3 --seed 1 --seconds 20 --trace 0

runs one pass over the workload's fixed seed list, rotated by ``--seed``.
The amount of work is the same on every commit; the seed lists are sized
so that a pass takes about ``--seconds``.  It checks every scenario
against its committed digest, prints each end-to-end metric with its
unit, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 1`` it instead records the per-layer ledger
over the first two seeds of that order (plus a K=2 shard pass) and
reports the per-layer metrics.

Every workload, each in a fresh process, with a JSON result set::

    python3 benchmarks/e2e/run.py [--repeat N] [--trace 1] [--out FILE] [--append]

``--append`` adds the runs to an existing result set of the same machine
and ``run_seconds``; alternate commits this way to build paired sets
for ``compare.py``.

``--update-digests`` recomputes ``digests.json`` after a deliberate
change of simulation results.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from dataclasses import replace
from multiprocessing import resource_tracker
from pathlib import Path

try:
    import harness
except ImportError as exc:
    sys.exit(f"run.py: {exc}")
import stats

HERE = Path(__file__).resolve().parent
BENCHMARK = harness.ROOT / "BENCHMARK.json"
RESULT_SCHEMA = "repro-e2e-bench/results-v1"
LEDGER_ORDER = (
    "setup", "engine", "churn", "probing", "model1", "model2", "kernels",
    "history", "costs", "path", "settle", "bank", "obs", "shard", "unattributed",
)


def load_benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def report(metrics: dict, declared: list) -> dict:
    """Attach units from BENCHMARK.json; the computed and declared metric
    sets must match exactly."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"metric set drifted: missing {missing}, undeclared {extra}")
    out = {}
    for m in declared:
        value = float(metrics[m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<30} {value:>14.6g} {m['unit']}")
    return out


def check_digests(workload, summaries, goldens) -> int:
    bad = [s["seed"] for s in summaries if s["digest"] != goldens[str(s["seed"])]]
    if bad:
        print(f"  DIGEST MISMATCH vs {workload.golden} goldens, seeds {bad}")
    return len(bad)


def run_measured(workload, seed: int, seconds: float, bench: dict, goldens: dict) -> dict:
    rec = harness.Recorder(trace=False)
    start = time.perf_counter()
    with rec:
        summaries = [
            harness.summarize_result(rec.run(workload.config(s))) for s in workload.order(seed)
        ]
    elapsed = time.perf_counter() - start
    failed = check_digests(workload, summaries, goldens)
    completed = sum(s["completed"] for s in summaries)
    attempted_rounds = completed + sum(s["failed"] for s in summaries)
    print(
        f"{workload.name}: {len(summaries)} scenarios in {elapsed:.1f}s "
        f"(seed list sized for {seconds:g}s), "
        f"round_fail_ratio {1 - completed / attempted_rounds:.4f}, digest_mismatches {failed}"
    )
    metrics = harness.end_to_end_metrics(rec, summaries)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "correct": failed == 0,
        "attempted": len(summaries),
        "failed": failed,
        "metrics": report(metrics, bench["end_to_end"]),
    }


def run_traced(workload, seed: int, bench: dict, goldens: dict) -> dict:
    configs = [workload.config(s) for s in workload.order(seed)[:2]]
    k2_configs = [replace(c, shard=harness.ShardConfig(n_shards=2)) for c in configs]
    segments_before = harness.shm_segments()
    passes = {}
    summaries = {}
    for label, trace, cfgs in (
        ("untraced", False, configs),
        ("single", True, configs),
        ("k2", True, k2_configs),
    ):
        rec = harness.Recorder(trace=trace)
        with rec:
            summaries[label] = [harness.summarize_result(rec.run(c)) for c in cfgs]
        passes[label] = rec
    leaked = harness.shm_segments() - segments_before
    # The shard workers are joined by ShardEngine.close; the resource
    # tracker they needed is this process's last child, so stop it too.
    resource_tracker._resource_tracker._stop()
    failed = sum(check_digests(workload, s, goldens) for s in summaries.values())
    if leaked:
        print(f"  LEAKED {leaked} shared-memory segment(s) after the K=2 pass")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{workload.name}.jsonl.gz"
    harness.write_spans(spans_path, {"single": passes["single"], "k2": passes["k2"]})

    single = passes["single"]
    wall = sum(single.walls())
    ledger = harness.layer_ledger(harness.span_totals(single))
    print(f"{workload.name}: traced seeds {[c.seed for c in configs]}, spans in {spans_path.name}")
    print(f"  {'layer':<14} {'self s/scenario':>16} {'share':>8}")
    for layer in LEDGER_ORDER:
        secs = ledger.get(layer, 0.0)
        print(f"  {layer:<14} {secs / len(configs):>16.4f} {secs / wall:>8.1%}")
    metrics = harness.layer_metrics(
        single, summaries["single"], passes["untraced"].walls(), passes["k2"]
    )
    return {
        "correct": failed == 0 and leaked == 0,
        "attempted": sum(len(s) for s in summaries.values()),
        "failed": failed,
        "metrics": report(metrics, bench["per_layer"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    bench = load_benchmark()
    workload = harness.WORKLOADS[name]
    harness.prepare_environment()
    goldens = harness.load_digests()[workload.golden]
    harness.run_scenario(workload.warmup_config(seed))
    if trace:
        result = run_traced(workload, seed, bench, goldens)
    else:
        result = run_measured(workload, seed, seconds, bench, goldens)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def child_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode} without a result")
    return {"workload": name, "seed": seed, "trace": trace, **record}


def summarize_runs(runs: list, bench: dict) -> dict:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    summary: dict = {}
    for run in runs:
        for metric, entry in run["metrics"].items():
            summary.setdefault(run["workload"], {}).setdefault(metric, []).append(entry["value"])
    return {
        w: {m: {**stats.summarize(v), "unit": units[m]} for m, v in metrics.items()}
        for w, metrics in summary.items()
    }


def earlier_runs(path: Path, machine: dict, seconds: float) -> list:
    """The runs of an existing result set that new runs may extend."""
    with open(path, encoding="utf-8") as fh:
        result_set = json.load(fh)
    if result_set.get("schema") != RESULT_SCHEMA:
        raise SystemExit(f"{path}: not a {RESULT_SCHEMA} result set")
    if result_set["machine"] != machine or result_set["run_seconds"] != seconds:
        raise SystemExit(
            f"{path}: made on {result_set['machine']} with run_seconds "
            f"{result_set['run_seconds']}; this run is {machine} with {seconds}"
        )
    return result_set["runs"]


def run_all(args) -> int:
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    machine = stats.machine_info()
    out = Path(args.out)
    runs = earlier_runs(out, machine, seconds) if args.append and out.exists() else []
    runs += [
        child_run(name, args.seed + r, seconds, 0)
        for r in range(args.repeat)
        for name in harness.WORKLOADS
    ]
    if args.trace:
        runs += [child_run(name, args.seed, seconds, 1) for name in harness.WORKLOADS]
    summary = summarize_runs(runs, bench)
    print(f"\n{'workload':<16} {'metric':<30} {'median':>12} {'iqr/median':>10}")
    for workload, metrics in summary.items():
        for metric, s in metrics.items():
            spread = s["iqr"] / s["median"] if s["median"] else 0.0
            print(f"{workload:<16} {metric:<30} {s['median']:>12.6g} {spread:>10.2%} {s['unit']}")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "schema": RESULT_SCHEMA,
                "machine": machine,
                "run_seconds": seconds,
                "runs": runs,
                "summary": summary,
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    print(f"wrote {out}")
    ok = all(run["correct"] for run in runs)
    return 0 if ok else 1


def update_digests() -> int:
    harness.prepare_environment()
    digests = {}
    for workload in harness.WORKLOADS.values():
        if workload.golden != workload.name:
            continue
        digests[workload.name] = {
            str(seed): harness.result_digest(harness.run_scenario(workload.config(seed)))
            for seed in workload.seeds
        }
        print(f"{workload.name}: {len(workload.seeds)} digests")
    with open(harness.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", default=str(HERE / "out" / "results.json"))
    parser.add_argument(
        "--append", action="store_true", help="add the runs to the result set in --out"
    )
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.update_digests:
        return update_digests()
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        parser.error("--workload needs --seconds")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
