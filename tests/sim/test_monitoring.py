"""Tests for the run counters and the terminal bar chart."""

import pytest

from repro.sim.monitoring import PerfCounters, ascii_bars


class TestPerfCounters:
    def test_snapshot_delta_roundtrip(self):
        c = PerfCounters()
        c.edges_scored += 3
        before = c.snapshot()
        c.edges_scored += 2
        c.selectivity_queries += 1
        delta = c.delta_since(before)
        assert delta["edges_scored"] == 2
        assert delta["selectivity_queries"] == 1


class TestAsciiBars:
    def test_renders_scaled_bars(self):
        out = ascii_bars(["a", "bb"], [10.0, 5.0], width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5
        assert "bb" in lines[1]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ascii_bars(["a"], [1.0, 2.0])

    def test_empty_ok(self):
        assert ascii_bars([], []) == ""
