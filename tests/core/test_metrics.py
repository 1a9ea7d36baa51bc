"""Tests for evaluation metrics."""

import numpy as np
import pytest

from repro.core.metrics import (
    ConnectionSeriesStats,
    confidence_interval95,
    forwarder_set,
    forwarder_set_size,
    mean_new_edge_fraction,
    path_quality,
    payoff_cdf,
    routing_efficiency,
)
from repro.core.path import Path, SeriesLog


def make_log(rounds):
    log = SeriesLog(cid=1, initiator=0, responder=9)
    for rnd, fwd in enumerate(rounds, start=1):
        log.add(
            Path(cid=1, round_index=rnd, initiator=0, responder=9, forwarders=tuple(fwd))
        )
    return log


class TestPathQuality:
    def test_definition_L_over_set_size(self):
        log = make_log([[1, 2], [1, 2], [3, 4]])
        # L = 2, ||pi|| = 4.
        assert path_quality(log) == pytest.approx(0.5)

    def test_perfectly_stable_series(self):
        log = make_log([[1, 2]] * 5)
        assert forwarder_set_size(log) == 2
        assert path_quality(log) == pytest.approx(1.0)

    def test_empty_series_is_zero(self):
        assert path_quality(make_log([])) == 0.0

    def test_forwarder_set_is_union(self):
        log = make_log([[1], [2], [1, 3]])
        assert forwarder_set(log) == frozenset({1, 2, 3})


class TestRoutingEfficiency:
    def test_ratio_of_means(self):
        assert routing_efficiency([100, 200], [5, 15]) == pytest.approx(15.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            routing_efficiency([], [1])

    def test_zero_sizes(self):
        assert routing_efficiency([0.0], [0.0]) == 0.0
        assert routing_efficiency([5.0], [0.0]) == float("inf")


class TestPayoffCDF:
    def test_monotone_and_normalised(self):
        values, probs = payoff_cdf([3.0, 1.0, 2.0, 2.0])
        assert list(values) == [1.0, 2.0, 2.0, 3.0]
        assert probs[-1] == 1.0
        assert all(np.diff(probs) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            payoff_cdf([])


class TestConfidenceInterval:
    def test_known_values(self):
        mean, ci = confidence_interval95([10.0, 12.0, 8.0, 10.0])
        assert mean == pytest.approx(10.0)
        sem = np.std([10, 12, 8, 10], ddof=1) / 2.0
        assert ci == pytest.approx(1.96 * sem)

    def test_single_sample_zero_width(self):
        mean, ci = confidence_interval95([5.0])
        assert mean == 5.0 and ci == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval95([])


class TestNewEdgeFraction:
    def test_stable_series_is_zero(self):
        assert mean_new_edge_fraction([make_log([[1, 2]] * 4)]) == 0.0

    def test_fully_fresh_series_is_one(self):
        log = make_log([[1, 2], [3, 4], [5, 6]])
        assert mean_new_edge_fraction([log]) == pytest.approx(1.0)

    def test_no_rounds_is_zero(self):
        assert mean_new_edge_fraction([make_log([])]) == 0.0


class TestSeriesStats:
    def test_from_log(self):
        log = make_log([[1, 2], [1, 2]])
        log.failed_rounds = 1
        log.reformations = 2
        s = ConnectionSeriesStats.from_log(log)
        assert s.rounds_completed == 2
        assert s.failed_rounds == 1
        assert s.reformations == 2
        assert s.forwarder_set_size == 2
        assert s.average_length == pytest.approx(2.0)
        assert s.path_quality == pytest.approx(1.0)
