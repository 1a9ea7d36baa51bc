"""Shared configuration for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure from the paper's §3 and
prints the same rows/series the paper reports, then asserts the
*qualitative shape* (who wins, directions of trends).  Absolute numbers
are not expected to match: the substrate is our simulator, not the
authors' (unreleased) one.

Scale is controlled by the ``REPRO_PRESET`` environment variable:
``quick`` (default; ~10x smaller workload, same shapes) or ``paper``
(N=40, 100 pairs, 2000 transmissions as in §3).

``REPRO_JOBS`` sets the process-pool width for the multi-seed sweeps.
It is read by :func:`repro.experiments.runner.default_n_jobs`, so every
``run_replicates`` / ``sweep`` call in the suite fans out over a process
pool without per-benchmark plumbing (replicate results are bit-identical
to the serial ones).
"""

import os

import pytest


def preset() -> str:
    value = os.environ.get("REPRO_PRESET", "quick")
    if value not in ("quick", "paper"):
        raise ValueError(f"REPRO_PRESET must be 'quick' or 'paper', got {value!r}")
    return value


def n_seeds() -> int:
    return int(os.environ.get("REPRO_SEEDS", "3" if preset() == "quick" else "2"))


def n_jobs() -> int:
    from repro.experiments.runner import default_n_jobs

    return default_n_jobs()


@pytest.fixture(scope="session")
def bench_preset():
    return preset()


@pytest.fixture(scope="session")
def bench_seeds():
    return n_seeds()


@pytest.fixture(scope="session")
def bench_jobs():
    """Replicate-sweep parallelism (``REPRO_JOBS``, default 1)."""
    return n_jobs()
