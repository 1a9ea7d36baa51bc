"""Fleet runner: resumable sweep orchestration over the obs layer.

The paper's figures are all *sweeps* — payoff curves, forwarder-set
sizes, anonymity CDFs across parameter grids.  This package turns those
multi-config runs from ad-hoc shell loops into durable, queryable
observability data:

- :mod:`repro.fleet.spec` — :class:`SweepSpec` expands parameter grids
  (config knobs × seeds × backends × fault severities × scenario
  families) into a deterministic, content-addressed job list.  A job's
  id is the hash of its fully resolved :class:`ExperimentConfig`, so
  re-running a spec after an interrupt — or after an edit that leaves
  the resolved configs alone — skips completed jobs.
- :mod:`repro.fleet.store` — :class:`FleetStore`, an append-only JSONL
  event log + results log with a compact rebuilt index
  (``repro-fleet/store-v1``) and a filter/group/aggregate query API.
- :mod:`repro.fleet.executor` — runs the pending jobs in batches
  through the replicate pool (:func:`repro.experiments.runner.run_jobs`)
  and records each as completed or failed; a graceful SIGINT drain or
  the ``--max-jobs`` cutoff marks the jobs not yet started resumable.
- :mod:`repro.fleet.dash` — the plain-text store summary that
  ``repro fleet show`` prints.

Layering: ``repro.fleet`` sits *above* the experiment harness — it may
import ``repro.experiments`` and ``repro.obs``, and nothing below it
may import ``repro.fleet`` at module scope (enforced by ARCH001).
"""

from __future__ import annotations

from repro.fleet.executor import FleetRunOutcome, run_fleet
from repro.fleet.spec import FleetJob, SweepSpec, job_id_for, load_spec
from repro.fleet.store import STORE_SCHEMA, FleetStore

__all__ = [
    "FleetJob",
    "FleetRunOutcome",
    "FleetStore",
    "STORE_SCHEMA",
    "SweepSpec",
    "job_id_for",
    "load_spec",
    "run_fleet",
]
