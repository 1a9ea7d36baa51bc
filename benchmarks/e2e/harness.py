"""Workloads, result digests and the outside-in recorder behind the
end-to-end benchmark (``run.py``).

Layers are measured from outside the program: :class:`Recorder` replaces
public functions of the simulator with timing wrappers while it is
installed and puts every original back when it is removed, so nothing
under ``src/`` changes and an unwrapped run is the plain program.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import itertools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from stats import percentile, tail_percentile_ok

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    raise ImportError(f"simulator sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.kernels import default_backend  # noqa: E402
from repro.core.protocol import ConnectionSeries  # noqa: E402
from repro.experiments.config import ChurnConfig, ExperimentConfig, FaultConfig  # noqa: E402
from repro.experiments.scenario import ScenarioResult, run_scenario  # noqa: E402
from repro.obs import ObsConfig  # noqa: E402
from repro.sim.engine import Environment  # noqa: E402
from repro.sim.shard import ShardConfig  # noqa: E402

DIGESTS = HERE / "digests.json"

# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a scenario configuration run over a fixed
    seed list.  The seed list is part of the definition, so every run
    measures the same scenarios and every result has a committed digest."""

    name: str
    seeds: Tuple[int, ...]
    overrides: Mapping[str, object]
    #: Workload whose committed digests this one must reproduce.
    golden: str

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(seed=seed, **self.overrides)

    def warmup_config(self, seed: int) -> ExperimentConfig:
        """A short scenario over the same code paths, run once untimed
        so lazy imports and first-call costs stay out of the numbers."""
        cfg = self.config(seed)
        return replace(
            cfg, n_nodes=min(cfg.n_nodes, 40), n_pairs=4, total_transmissions=40
        )

    def order(self, seed: int) -> List[int]:
        """The seed list rotated by the benchmark seed: every run measures
        the same scenarios, in an order the benchmark seed picks."""
        k = seed % len(self.seeds)
        return list(self.seeds[k:] + self.seeds[:k])


_L3 = {"strategy": "utility-II", "lookahead": 3}

# Each seed list is sized so that one pass over it takes about 20 s on a
# 2-core host: long enough that a few seconds of host slowdown move the
# per-run medians little, short enough that every run of every workload
# fits the benchmark's time budget.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's §3 population (40 nodes, d=5, 100 pairs, 2000
        # transmissions, churn and bank on) under Model II: planner rows
        # and the SPNE level sweep dominate; small-world dispatch matters.
        Workload("paper-l3", tuple(range(1, 21)), _L3, golden="paper-l3"),
        # Same population under Model I with chaos: no SPNE at all, the
        # heaviest event-kernel, slow-path probing, transport and
        # reformation load.
        Workload(
            "paper-m1-chaos",
            tuple(range(1, 29)),
            {
                "strategy": "utility-I",
                "faults": FaultConfig.from_severity(0.2),
                "temporal_forwarding": True,
            },
            golden="paper-m1-chaos",
        ),
        # The large world: quality-row building, the level sweep and
        # WorldArrays refreshes dominate; probing takes the fast sweep.
        Workload(
            "overlay-5k-l3",
            tuple(range(1, 7)),
            {
                "n_nodes": 5000,
                "n_pairs": 16,
                "total_transmissions": 160,
                "churn": ChurnConfig(enabled=False),
                "use_bank": False,
                **_L3,
            },
            golden="overlay-5k-l3",
        ),
        # paper-l3 with every obs channel on.  Obs must not change
        # results, so it is held to paper-l3's digests.
        Workload(
            "paper-l3-obs",
            tuple(range(1, 17)),
            {**_L3, "obs": ObsConfig(events=True, spans=True, hop_events=True)},
            golden="paper-l3",
        ),
    )
}


def prepare_environment() -> None:
    """Pin the process to the default single-process numpy backend."""
    os.environ.pop("REPRO_BACKEND", None)
    os.environ.pop("REPRO_JOBS", None)
    if default_backend() != "numpy":
        raise RuntimeError(f"backend resolves to {default_backend()!r}, not numpy")


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def _float_items(mapping: Mapping) -> List[list]:
    return sorted([int(k), float(v)] for k, v in mapping.items())


def result_digest(result: ScenarioResult) -> str:
    """sha256 over everything a seed determines: every path, payoff,
    earning and settlement, plus the failure and degradation counters."""
    doc = {
        "series": [
            [
                log.cid,
                log.failed_rounds,
                log.reformations,
                [[p.round_index, [int(f) for f in p.forwarders]] for p in log.paths],
            ]
            for log in result.series_logs
        ],
        "payoffs": _float_items(result.payoffs),
        "earnings": _float_items(result.earnings),
        "settlements": sorted(
            [int(cid), _float_items(paid)]
            for cid, paid in result.series_settlements.items()
        ),
        "degradation": sorted(result.degradation.items()),
    }
    blob = json.dumps(doc, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def summarize_result(result: ScenarioResult) -> Dict[str, object]:
    """The few numbers a run keeps from one scenario (results themselves
    are dropped at once, so they do not inflate peak memory)."""
    return {
        "seed": result.config.seed,
        "digest": result_digest(result),
        "completed": sum(s.rounds_completed for s in result.series_stats),
        "failed": sum(s.failed_rounds for s in result.series_stats),
        "reformations": result.total_reformations,
        "degradation": dict(result.degradation),
        "perf": dict(result.perf_counters),
    }


def shm_segments() -> int:
    """Shared-memory segments created by ``multiprocessing.shared_memory``."""
    try:
        return sum(1 for name in os.listdir("/dev/shm") if name.startswith("psm_"))
    except FileNotFoundError:
        return 0


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------

#: Public functions wrapped as spans under ``--trace 1``:
#: (module, owning class or "" for a module function, attribute, layer).
SPAN_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.network.overlay", "Overlay", "bootstrap", "setup"),
    ("repro.sim.engine", "Environment", "run", "engine"),
    ("repro.sim.engine", "Environment", "step", "engine"),
    ("repro.network.overlay", "Overlay", "join", "churn"),
    ("repro.network.overlay", "Overlay", "leave", "churn"),
    ("repro.network.overlay", "Overlay", "depart", "churn"),
    ("repro.network.probing", "", "fast_full_sweep", "probing"),
    ("repro.network.probing", "", "run_probe_round", "probing"),
    ("repro.core.routing", "UtilityModelI", "select_next_hop", "model1"),
    ("repro.core.kernels", "BatchPlanner", "decide_model1", "model1"),
    ("repro.core.routing", "UtilityModelII", "select_next_hop", "model2"),
    ("repro.core.kernels", "BatchPlanner", "decide_model2", "model2"),
    ("repro.core.kernels", "BatchPlanner", "prepare", "model2"),
    ("repro.core.kernels", "", "spne_level_step", "kernels"),
    ("repro.core.kernels", "", "spne_state_validity", "kernels"),
    ("repro.core.kernels", "WorldArrays", "ensure_fresh", "kernels"),
    ("repro.core.history", "HistoryProfile", "record", "history"),
    ("repro.core.costs", "CostModel", "transmission_cost", "costs"),
    ("repro.core.protocol", "PathBuilder", "build_round", "path"),
    ("repro.core.protocol", "ConnectionSeries", "settlement", "settle"),
    ("repro.payment.escrow", "SeriesEscrow", "open", "settle"),
    ("repro.payment.escrow", "SeriesEscrow", "settle", "settle"),
    ("repro.payment.bank", "Bank", "withdraw", "bank"),
    ("repro.payment.bank", "Bank", "fund_escrow", "bank"),
    ("repro.payment.bank", "Bank", "pay_from_escrow", "bank"),
    ("repro.payment.bank", "Bank", "refund_escrow", "bank"),
    ("repro.payment.bank", "Bank", "deposit_to_account", "bank"),
    ("repro.obs.events", "EventBus", "emit", "obs"),
    ("repro.obs.tracing", "SpanTracer", "span", "obs"),
    ("repro.sim.shard", "ShardEngine", "start", "shard"),
    ("repro.sim.shard", "ShardEngine", "build_levels", "shard"),
    ("repro.sim.shard", "ShardEngine", "publish_topology", "shard"),
    ("repro.sim.shard", "ShardEngine", "publish_mask", "shard"),
    ("repro.sim.shard", "ShardEngine", "close", "shard"),
)

#: Generator functions are counted, not timed: a wrapper would time only
#: the creation of the generator.
COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.network.transport", "TransportNetwork", "send_along_path"),
)


def span_name(owner: str, attr: str) -> str:
    return f"{owner}.{attr}" if owner else attr


LAYER: Dict[str, str] = {
    span_name(owner, attr): layer for _m, owner, attr, layer in SPAN_TARGETS
}
#: The root span; its self time is the run time no wrapped layer covers.
ROOT_SPAN = "run_scenario"
LAYER[ROOT_SPAN] = "unattributed"


def _resolve(module: str, owner: str):
    mod = importlib.import_module(module)
    return getattr(mod, owner) if owner else mod


def _on_build_round(notes: Counter, args: tuple, path) -> None:
    notes["path.formed"] += 1
    notes["path.hops"] += len(path.forwarders)


def _on_fast_sweep(notes: Counter, args: tuple, swept) -> None:
    if swept is not None:
        notes["probing.fast_sweeps"] += 1


def _on_decide_model2(notes: Counter, args: tuple, _choice) -> None:
    planner = args[0]
    if planner.max_batched_frontiers > notes["kernels.max_batched_frontiers"]:
        notes["kernels.max_batched_frontiers"] = planner.max_batched_frontiers


#: Counts that need a wrapped call's return value.
HOOKS: Dict[str, Callable[[Counter, tuple, object], None]] = {
    "PathBuilder.build_round": _on_build_round,
    "fast_full_sweep": _on_fast_sweep,
    "BatchPlanner.decide_model2": _on_decide_model2,
}

Span = Tuple[int, int, int, str, float, float]  # id, parent, scenario, name, start, end


class Recorder:
    """Runs scenarios with wrappers around the simulator's public
    functions.  As a context manager it installs the wrappers on entry
    and restores every original function object on exit.

    Always installed: a marker on ``Environment.run`` (set-up ends at
    its first call) and timers on ``ConnectionSeries.run_round`` /
    ``retry_round``.  With ``trace=True`` every :data:`SPAN_TARGETS`
    function becomes a span (start, end, parent, scenario id), kept in
    memory; each scenario is the root span of its calls.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.spans: List[Span] = []
        self.scenarios: List[Dict[str, float]] = []
        self.round_s: List[float] = []
        #: Call counts of COUNT_TARGETS and the HOOKS' tallies.
        self.notes: Counter = Counter()
        self._stack: List[int] = [0]
        self._ids = itertools.count(1)
        self._current: Optional[Dict[str, float]] = None
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Recorder":
        if self.trace:
            for module, owner, attr, _layer in SPAN_TARGETS:
                name = span_name(owner, attr)
                self._patch(
                    _resolve(module, owner),
                    attr,
                    functools.partial(self._span, name=name, hook=HOOKS.get(name)),
                )
            for module, owner, attr in COUNT_TARGETS:
                self._patch(
                    _resolve(module, owner),
                    attr,
                    functools.partial(self._counter, name=span_name(owner, attr)),
                )
        # Outermost, so set-up ends before the Environment.run span starts.
        self._patch(Environment, "run", self._setup_marker)
        self._patch(ConnectionSeries, "run_round", self._round_timer)
        self._patch(ConnectionSeries, "retry_round", self._round_timer)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr: str, make) -> None:
        original = vars(target)[attr]
        self._saved.append((target, attr, original))
        setattr(target, attr, make(original))

    def run(self, config: ExperimentConfig) -> ScenarioResult:
        """Run one scenario as the root span of everything it calls."""
        sid = next(self._ids)
        record: Dict[str, float] = {"id": sid, "seed": config.seed, "setup_end": None}
        self._current = record
        self._stack.append(sid)
        first_round = len(self.round_s)
        start = time.perf_counter()
        try:
            result = run_scenario(config)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._current = None
        record.update(start=start, end=end, rounds=self.round_s[first_round:])
        if self.trace:
            self.spans.append((sid, 0, sid, ROOT_SPAN, start, end))
        self.scenarios.append(record)
        return result

    # -- wrappers ----------------------------------------------------------
    def _setup_marker(self, fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            record = self._current
            if record is not None and record["setup_end"] is None:
                record["setup_end"] = time.perf_counter()
            return fn(*args, **kwargs)

        return run

    def _round_timer(self, fn):
        samples, clock = self.round_s, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(clock() - start)

        return timed

    def _span(self, fn, name: str, hook):
        spans, stack, ids, notes = self.spans, self._stack, self._ids, self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            root = stack[1] if len(stack) > 1 else sid
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, root, name, start, end))
            if hook is not None:
                hook(notes, args, result)
            return result

        return span

    def _counter(self, fn, name: str):
        notes = self.notes

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            notes[name] += 1
            return fn(*args, **kwargs)

        return counted

    def walls(self) -> List[float]:
        return [s["end"] - s["start"] for s in self.scenarios]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(rec: Recorder, summaries: List[Dict[str, object]]) -> Dict[str, float]:
    """Every end-to-end metric except ``peak_rss_mb`` (a process figure),
    over every scenario the recorder ran."""
    rounds = sorted(x for scenario in rec.scenarios for x in scenario["rounds"])
    if not tail_percentile_ok(len(rounds), 95):
        raise RuntimeError(f"{len(rounds)} round samples are too few for a p95")
    completed = sum(summary["completed"] for summary in summaries)
    busy = sum(s["end"] - s["setup_end"] for s in rec.scenarios)
    return {
        "setup_s": median([s["setup_end"] - s["start"] for s in rec.scenarios]),
        "scenario_s": median(rec.walls()),
        "rounds_per_s": completed / busy,
        "round_p50_ms": percentile(rounds, 50) * 1e3,
        "round_p95_ms": percentile(rounds, 95) * 1e3,
    }


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the time its direct children cover.

    Spans nest strictly (a wrapper closes before its caller does), so the
    children of one span never overlap and their durations just add."""
    spans = list(spans)
    covered: Counter = Counter()
    for _sid, parent, _root, _name, start, end in spans:
        covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _p, _r, _n, start, end in spans}


def phase_of(span: Span, setup_end: Mapping[int, float]) -> str:
    """``setup`` for calls made before the scenario's first ``Environment.run``."""
    sid, _parent, root, name, start, _end = span
    if name != ROOT_SPAN and start < setup_end[root]:
        return "setup"
    return "run"


def span_totals(rec: Recorder) -> Dict[Tuple[str, str], List[float]]:
    """(name, phase) -> [calls, self seconds, inclusive seconds]."""
    setup_end = {s["id"]: s["setup_end"] for s in rec.scenarios}
    selfs = self_times(rec.spans)
    totals: Dict[Tuple[str, str], List[float]] = {}
    for span in rec.spans:
        row = totals.setdefault((span[3], phase_of(span, setup_end)), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += selfs[span[0]]
        row[2] += span[5] - span[4]
    return totals


def layer_ledger(totals: Mapping[Tuple[str, str], List[float]]) -> Dict[str, float]:
    """Self seconds per layer; set-up calls are booked under ``setup``.
    The layers add up to the scenarios' wall time."""
    ledger: Counter = Counter()
    for (name, phase), (_calls, self_s, _incl) in totals.items():
        ledger["setup" if phase == "setup" else LAYER[name]] += self_s
    return dict(ledger)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _total(totals, column: int, names, phases=("run",)) -> float:
    """Sum one :func:`span_totals` column over span names and phases."""
    return sum(
        totals.get((name, phase), (0, 0.0, 0.0))[column] for name in names for phase in phases
    )


def layer_metrics(
    single: Recorder,
    single_summaries: List[Dict[str, object]],
    untraced_walls: List[float],
    k2: Recorder,
) -> Dict[str, float]:
    """Per-layer metrics, per scenario, from the single-process traced
    pass; ``shard.*`` from the traced K=2 pass over the same seeds."""
    n = len(single.scenarios)
    t = span_totals(single)
    perf: Counter = Counter()
    deg: Counter = Counter()
    for s in single_summaries:
        perf.update(s["perf"])
        deg.update(s["degradation"])
    notes = single.notes

    def calls(*names: str) -> float:
        return _total(t, 0, names)

    def self_s(*names: str) -> float:
        return _total(t, 1, names)

    k2t = span_totals(k2)
    n2 = len(k2.scenarios)
    both = ("setup", "run")
    churn = ("Overlay.join", "Overlay.leave", "Overlay.depart")
    bank = tuple(span_name(o, a) for _m, o, a, layer in SPAN_TARGETS if layer == "bank")
    reformations = sum(s["reformations"] for s in single_summaries)
    root = t[(ROOT_SPAN, "run")]
    single_wall = median(single.walls())
    k2_wall = median(k2.walls())
    return {
        "setup.bootstrap_s": _total(t, 2, ["Overlay.bootstrap"], ("setup",)) / n,
        "engine.events": calls("Environment.step") / n,
        "engine.self_s": self_s("Environment.run", "Environment.step") / n,
        "churn.transitions": calls(*churn) / n,
        "churn.self_s": self_s(*churn) / n,
        "probing.probe_rounds": calls("run_probe_round") / n,
        "probing.fast_sweeps": notes["probing.fast_sweeps"] / n,
        "probing.fast_sweep_ratio": _ratio(
            notes["probing.fast_sweeps"], calls("fast_full_sweep")
        ),
        "probing.self_s": self_s("fast_full_sweep", "run_probe_round") / n,
        "model1.decisions": calls("UtilityModelI.select_next_hop") / n,
        "model1.kernel_ratio": _ratio(
            calls("BatchPlanner.decide_model1"), calls("UtilityModelI.select_next_hop")
        ),
        "model1.self_s": self_s(
            "UtilityModelI.select_next_hop", "BatchPlanner.decide_model1"
        ) / n,
        "model2.decisions": calls("UtilityModelII.select_next_hop") / n,
        "model2.kernel_ratio": _ratio(
            calls("BatchPlanner.decide_model2"), calls("UtilityModelII.select_next_hop")
        ),
        "model2.self_s": self_s(
            "UtilityModelII.select_next_hop",
            "BatchPlanner.decide_model2",
            "BatchPlanner.prepare",
        ) / n,
        "kernels.level_steps": calls("spne_level_step") / n,
        "kernels.level_step_s": self_s("spne_level_step") / n,
        "kernels.validity_s": self_s("spne_state_validity") / n,
        "kernels.world_refreshes": calls("WorldArrays.ensure_fresh") / n,
        "kernels.world_refresh_s": self_s("WorldArrays.ensure_fresh") / n,
        "kernels.array_rebuilds": perf["array_rebuilds"] / n,
        "kernels.batch_width": _ratio(perf["kernel_batch_elements"], perf["kernel_calls"]),
        "kernels.max_batched_frontiers": float(notes["kernels.max_batched_frontiers"]),
        "history.records": calls("HistoryProfile.record") / n,
        "history.record_s": self_s("HistoryProfile.record") / n,
        "history.selectivity_queries": perf["selectivity_queries"] / n,
        "history.edges_scored": perf["edges_scored"] / n,
        "costs.calls": calls("CostModel.transmission_cost") / n,
        "costs.self_s": self_s("CostModel.transmission_cost") / n,
        "path.builds": calls("PathBuilder.build_round") / n,
        "path.self_s": self_s("PathBuilder.build_round") / n,
        "path.reformations": reformations / n,
        "path.attempt_success_ratio": _ratio(
            notes["path.formed"], notes["path.formed"] + reformations
        ),
        "path.mean_hops": _ratio(notes["path.hops"], notes["path.formed"]),
        "transport.sends": notes["TransportNetwork.send_along_path"] / n,
        "transport.rounds_dropped": deg["rounds_dropped"] / n,
        "settle.series": calls("ConnectionSeries.settlement") / n,
        "settle.self_s": self_s(
            "ConnectionSeries.settlement", "SeriesEscrow.open", "SeriesEscrow.settle"
        ) / n,
        "settle.deferrals": deg["deferred_settlements"] / n,
        "bank.ops": calls(*bank) / n,
        "bank.self_s": self_s(*bank) / n,
        "bank.denials": deg["bank_denials"] / n,
        "obs.events": calls("EventBus.emit") / n,
        "obs.emit_s": self_s("EventBus.emit") / n,
        "obs.spans": calls("SpanTracer.span") / n,
        "shard.start_s": _total(k2t, 2, ["ShardEngine.start"], both) / n2,
        "shard.builds": _total(k2t, 0, ["ShardEngine.build_levels"], both) / n2,
        "shard.build_s": _total(k2t, 2, ["ShardEngine.build_levels"], both) / n2,
        "shard.close_s": _total(k2t, 2, ["ShardEngine.close"], both) / n2,
        "shard.k2_scenario_s": k2_wall,
        "shard.k2_speedup": single_wall / k2_wall,
        "trace.unattributed_ratio": root[1] / root[2],
        "trace.overhead_ratio": single_wall / median(untraced_walls),
    }


def write_spans(path: Path, passes: Mapping[str, Recorder]) -> None:
    """All recorded spans as gzipped JSONL, one object per span."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for label, rec in passes.items():
            setup_end = {s["id"]: s["setup_end"] for s in rec.scenarios}
            selfs = self_times(rec.spans)
            for span in rec.spans:
                sid, parent, root, name, start, end = span
                phase = phase_of(span, setup_end)
                fh.write(
                    json.dumps(
                        {
                            "pass": label,
                            "id": sid,
                            "parent": parent,
                            "scenario": root,
                            "name": name,
                            "layer": "setup" if phase == "setup" else LAYER[name],
                            "start": start,
                            "end": end,
                            "self": selfs[sid],
                        }
                    )
                    + "\n"
                )
