"""Observability overhead benchmarks.

Two questions, one per benchmark:

1. ``test_perf_null_tracer_hot_loop`` — what does leaving the
   instrumentation *in place but disabled* cost?  The NULL_TRACER path
   is a method call returning a shared no-op context manager; this pins
   the per-call price so a regression (e.g. someone allocating in
   ``NullTracer.span``) shows up as a larger per-call time.
2. ``test_perf_scenario_tracing_enabled`` vs
   ``test_perf_scenario_tracing_disabled`` — what does *enabled*
   tracing cost on a real (small) scenario run end-to-end?  The enabled
   run records every event and span; the ratio of the two timings is
   the overhead.

These are diagnostics: CI runs them without gating.  The obs cost that
gates is the end-to-end ``paper-l3-obs`` workload of
``benchmarks/e2e``, compared against the parent commit on the same
runner.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.obs import ObsConfig
from repro.obs.tracing import NULL_TRACER, SpanTracer

SMALL = dict(
    seed=5, n_nodes=20, n_pairs=4, total_transmissions=40, use_bank=False
)


def test_perf_null_tracer_hot_loop(benchmark):
    """10k disabled span entries: the cost instrumented call sites pay
    on every run with observability off."""

    def loop():
        n = 0
        for _ in range(10_000):
            with NULL_TRACER.span("spne.decide"):
                n += 1
        return n

    assert benchmark(loop) == 10_000


def test_perf_live_tracer_hot_loop(benchmark):
    """10k live span records, for the enabled/disabled per-span ratio."""

    def loop():
        tracer = SpanTracer()
        for _ in range(10_000):
            with tracer.span("spne.decide"):
                pass
        return len(tracer.spans)

    assert benchmark(loop) == 10_000


def test_perf_scenario_tracing_disabled(benchmark):
    result = benchmark(lambda: run_scenario(ExperimentConfig(**SMALL)))
    assert result.trace is None


def test_perf_scenario_tracing_enabled(benchmark):
    cfg = ExperimentConfig(**SMALL, obs=ObsConfig())
    result = benchmark(lambda: run_scenario(cfg))
    assert result.trace is not None
    assert len(result.trace.events) > 0
