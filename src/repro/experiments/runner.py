"""Multi-seed sweep runner with confidence intervals.

The paper's figures plot means with 95% confidence error bars over
repeated simulations; :func:`sweep` is the generic engine: it varies one
config field over a grid, runs ``n_seeds`` replicates per grid point, and
aggregates any per-run metric.

:func:`run_jobs` is the project's one process pool: replicate sweeps
and ``repro fleet run`` batches both go through it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from repro.core.metrics import confidence_interval95
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import ScenarioResult, run_scenario

MetricFn = Callable[[ScenarioResult], float]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated metric at one grid value."""

    value: object
    mean: float
    ci95: float
    samples: Sequence[float]


@dataclass
class SweepResult:
    field_name: str
    metric_name: str
    points: List[SweepPoint] = field(default_factory=list)

    def xs(self) -> List[object]:
        return [p.value for p in self.points]

    def means(self) -> List[float]:
        return [p.mean for p in self.points]

    def cis(self) -> List[float]:
        return [p.ci95 for p in self.points]

    def as_rows(self) -> List[Dict[str, object]]:
        return [
            {
                self.field_name: p.value,
                self.metric_name: p.mean,
                "ci95": p.ci95,
                "n": len(p.samples),
            }
            for p in self.points
        ]


def default_n_jobs() -> int:
    """Process-pool width for :func:`run_jobs`: the ``REPRO_JOBS``
    environment variable, defaulting to 1 (serial).

    The benchmark suite plumbs this through ``benchmarks/conftest.py`` so
    multi-seed sweeps (``REPRO_SEEDS``) can use the existing process-pool
    path without touching each benchmark.
    """
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer >= 1, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"REPRO_JOBS must be >= 1, got {value}")
    return value


def run_jobs(
    fn: Callable[[T], R], items: Sequence[T], n_jobs: Optional[int] = None
) -> List[R]:
    """``[fn(item) for item in items]``, fanned over a process pool.

    ``n_jobs`` is the pool width; ``None`` (the default) resolves via
    :func:`default_n_jobs` (the ``REPRO_JOBS`` environment variable).
    With one worker or at most one item everything runs in-process.
    Otherwise ``fn`` and every item are pickled to the workers, so
    ``fn`` must be a module-level callable (or a ``functools.partial``
    of one).  Results come back in item order either way; an exception
    raised by any call propagates.
    """
    if n_jobs is None:
        n_jobs = default_n_jobs()
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if n_jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n_jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def run_replicates(
    base: ExperimentConfig,
    n_seeds: int,
    seed0: int = 0,
    n_jobs: Optional[int] = None,
) -> List[ScenarioResult]:
    """Run ``n_seeds`` scenarios differing only in seed.

    The replicates go through :func:`run_jobs` with ``n_jobs`` workers.
    Because every run is deterministic in its config, the parallel
    result list is bit-identical to the serial one (asserted by the
    tests) — replicates share no state, so this is embarrassingly
    parallel.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    configs = [base.with_overrides(seed=seed0 + k) for k in range(n_seeds)]
    return run_jobs(run_scenario, configs, n_jobs)


def sweep(
    base: ExperimentConfig,
    field_name: str,
    values: Sequence[object],
    metric: MetricFn,
    metric_name: str = "metric",
    n_seeds: int = 3,
    seed0: int = 0,
    n_jobs: Optional[int] = None,
) -> SweepResult:
    """Vary ``field_name`` over ``values``; aggregate ``metric`` per point."""
    result = SweepResult(field_name=field_name, metric_name=metric_name)
    for v in values:
        cfg = base.with_overrides(**{field_name: v})
        samples = [
            metric(r)
            for r in run_replicates(cfg, n_seeds, seed0=seed0, n_jobs=n_jobs)
        ]
        mean, ci = confidence_interval95(samples)
        result.points.append(SweepPoint(value=v, mean=mean, ci95=ci, samples=samples))
    return result


def pooled_good_payoffs(results: Sequence[ScenarioResult]) -> np.ndarray:
    """All good-node payoffs pooled across replicate runs (CDF figures)."""
    pools: List[float] = []
    for r in results:
        pools.extend(r.good_payoffs())
    return np.asarray(pools, dtype=float)


# -- canonical metrics used by the figures ------------------------------
def metric_average_good_payoff(result: ScenarioResult) -> float:
    """Figure 3/4 payoff: mean per-(good forwarder, series) settlement."""
    return result.average_good_series_payoff()


def metric_average_good_total_payoff(result: ScenarioResult) -> float:
    """Cumulative net payoff per good node (CDF-style aggregate)."""
    return result.average_good_payoff()


def metric_forwarder_set_size(result: ScenarioResult) -> float:
    """Figure 5 metric: mean per-pair forwarder-set size ``||pi||``."""
    return result.average_forwarder_set_size()


def metric_path_quality(result: ScenarioResult) -> float:
    """Mean per-pair path quality ``Q(pi) = L / ||pi||``."""
    return result.average_path_quality()


def metric_routing_efficiency(result: ScenarioResult) -> float:
    """Table 2: average (per-series) payoff / average number of forwarders."""
    from repro.core.metrics import routing_efficiency

    payoffs = result.good_series_payoffs()
    sizes = result.forwarder_set_sizes()
    if not payoffs or not sizes:
        return 0.0
    return routing_efficiency(payoffs, sizes)
