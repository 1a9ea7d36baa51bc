"""Evaluation metrics (§2.1, §3).

- ``path_quality`` — ``Q(pi) = L / ||pi||`` (§2.1): average path length
  normalised by the forwarder-set size; higher is better (a small, reused
  forwarder set).
- ``forwarder_set`` / ``forwarder_set_size`` — the union ``Q`` of per-round
  forwarder sets.
- ``routing_efficiency`` — average payoff / average number of forwarders
  (Table 2's metric).
- ``payoff_cdf`` — empirical CDF of good-node payoffs (Figures 6, 7).
- ``confidence_interval95`` — mean +- 95% CI half-width (Figures 3, 4 error
  bars).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.path import SeriesLog


def forwarder_set(log: SeriesLog) -> FrozenSet[int]:
    """Union of forwarders over all rounds of a series (§2.1's ``Q``)."""
    return log.union_forwarder_set()


def forwarder_set_size(log: SeriesLog) -> int:
    """Size of the union forwarder set ``||pi||``."""
    return len(log.union_forwarder_set())


def path_quality(log: SeriesLog) -> float:
    """``Q(pi) = L / ||pi||``; 0.0 for an empty series."""
    size = forwarder_set_size(log)
    if size == 0:
        return 0.0
    return log.average_length() / size


def routing_efficiency(
    payoffs: Iterable[float], forwarder_set_sizes: Iterable[float]
) -> float:
    """Average payoff divided by average forwarder count (Table 2).

    Raises on empty inputs; returns ``inf`` when paths never formed but
    payoffs exist (cannot happen in a well-formed run).
    """
    p = np.asarray(list(payoffs), dtype=float)
    s = np.asarray(list(forwarder_set_sizes), dtype=float)
    if p.size == 0 or s.size == 0:
        raise ValueError("routing_efficiency needs non-empty inputs")
    mean_size = float(s.mean())
    mean_payoff = float(p.mean())
    if mean_size == 0:
        return float("inf") if mean_payoff > 0 else 0.0
    return mean_payoff / mean_size


def payoff_cdf(payoffs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: (sorted values, P(X <= x)).  Figures 6-7."""
    values = np.sort(np.asarray(payoffs, dtype=float))
    if values.size == 0:
        raise ValueError("payoff_cdf needs at least one observation")
    probs = np.arange(1, values.size + 1, dtype=float) / values.size
    return values, probs


def confidence_interval95(samples: Sequence[float]) -> Tuple[float, float]:
    """(mean, 95% CI half-width) using the normal approximation.

    Half-width is 0 for fewer than 2 samples.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("confidence_interval95 needs at least one sample")
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    sem = float(arr.std(ddof=1)) / np.sqrt(arr.size)
    return mean, 1.96 * sem


@dataclass(frozen=True)
class ConnectionSeriesStats:
    """Summary of one completed series, as consumed by the harness."""

    cid: int
    initiator: int
    responder: int
    rounds_completed: int
    failed_rounds: int
    reformations: int
    average_length: float
    forwarder_set_size: int
    path_quality: float

    @classmethod
    def from_log(cls, log: SeriesLog) -> "ConnectionSeriesStats":
        return cls(
            cid=log.cid,
            initiator=log.initiator,
            responder=log.responder,
            rounds_completed=log.rounds_completed,
            failed_rounds=log.failed_rounds,
            reformations=log.reformations,
            average_length=log.average_length(),
            forwarder_set_size=forwarder_set_size(log),
            path_quality=path_quality(log),
        )


def mean_new_edge_fraction(logs: Iterable[SeriesLog]) -> float:
    """Average fraction of *new* edges per round across series — the
    empirical ``E[X]`` of Proposition 1 (0 = perfectly stable paths,
    ~1 = every round re-forms from scratch)."""
    fractions: List[float] = []
    for log in logs:
        per_round = log.new_edges_per_round()
        for i, new_edges in enumerate(per_round):
            # Round i+2 has length+1 edges (forwarders + final delivery).
            n_edges = log.paths[i + 1].length + 1
            if n_edges > 0:
                fractions.append(new_edges / n_edges)
    if not fractions:
        return 0.0
    return float(np.mean(fractions))
