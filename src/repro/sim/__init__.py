"""Deterministic discrete-event simulation kernel.

A small, self-contained SimPy-style engine used as the substrate for the
P2P churn/forwarding simulations.  The public surface is:

- :class:`~repro.sim.engine.Environment` — simulation clock + event heap.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout` —
  awaitable primitives for processes.
- :class:`~repro.sim.process.Process` — generator-based coroutine process.
- :class:`~repro.sim.rng.RandomStreams` — named, independently seeded
  substreams so that component randomness is decoupled (adding probes does
  not perturb churn draws).
- :mod:`~repro.sim.distributions` — Pareto/exponential helpers with
  median-based parameterisation used by the paper's churn model.

The kernel is deterministic: given a root seed, event ordering is a pure
function of the model (ties broken by insertion order).
"""

from repro.sim.engine import Environment, StopSimulation
from repro.sim.events import Event, Interrupt, Timeout
from repro.sim.faults import (
    BankUnavailable,
    FaultError,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.sim.monitoring import (
    PERF,
    DegradationCounters,
    PerfCounters,
    ascii_bars,
)
from repro.sim.process import Process
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams
from repro.sim import distributions

__all__ = [
    "BankUnavailable",
    "DegradationCounters",
    "Environment",
    "Event",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "PERF",
    "PerfCounters",
    "Interrupt",
    "RetryPolicy",
    "Process",
    "RandomStreams",
    "Resource",
    "StopSimulation",
    "Store",
    "Timeout",
    "ascii_bars",
    "distributions",
]
