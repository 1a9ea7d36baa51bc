"""Metrics registry: instrument semantics and exporter formats."""

import json
import pickle

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("repro_things_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labelled_children_are_independent(self):
        c = Counter("repro_things_total")
        c.inc(1.0, kind="a")
        c.inc(4.0, kind="b")
        assert c.value(kind="a") == 1.0
        assert c.value(kind="b") == 4.0
        assert c.value() == 0.0

    def test_negative_rejected(self):
        c = Counter("repro_things_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)
        with pytest.raises(ValueError):
            c.inc(-1.0, kind="a")

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("0bad")
        with pytest.raises(ValueError):
            Counter("has space")
        c = Counter("repro_ok_total")
        with pytest.raises(ValueError):
            c.inc(1.0, **{"0bad": "x"})


class TestGauge:
    def test_set_inc(self):
        g = Gauge("repro_level")
        g.set(5.0)
        g.inc(-2.0)  # gauges may decrease
        assert g.value() == 3.0

    def test_labelled(self):
        g = Gauge("repro_level")
        g.set(1.0, phase="setup")
        g.set(2.0, phase="simulate")
        assert g.value(phase="setup") == 1.0
        assert g.value(phase="simulate") == 2.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_a_total")
        assert reg.counter("repro_a_total") is a

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_a_total")

    def test_register_counters_materialises_snapshot(self):
        reg = MetricsRegistry()
        reg.register_counters(
            "repro_perf", {"edges_scored": 12, "memo_hits": 3}, help="h"
        )
        assert reg.counter("repro_perf_edges_scored_total").value() == 12.0
        assert reg.counter("repro_perf_memo_hits_total").value() == 3.0

    def test_register_gauges(self):
        reg = MetricsRegistry()
        reg.register_gauges("repro_bank", {"accounts": 24.0})
        assert reg.gauge("repro_bank_accounts").value() == 24.0

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_events_total", "Events by kind.")
        c.inc(2.0, kind="path.form")
        g = reg.gauge("repro_phase_wall_seconds", "Phase wall time.")
        g.set(0.25, phase="setup")
        text = reg.to_prometheus()
        assert "# HELP repro_events_total Events by kind.\n" in text
        assert "# TYPE repro_events_total counter\n" in text
        assert 'repro_events_total{kind="path.form"} 2\n' in text
        assert 'repro_phase_wall_seconds{phase="setup"} 0.25\n' in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total").inc(1.0, k='a"b\\c')
        assert 'k="a\\"b\\\\c"' in reg.to_prometheus()

    def test_json_export_parses(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total").inc(1.0, kind="x")
        reg.gauge("repro_g").set(0.5)
        obj = json.loads(reg.to_json())
        assert obj["schema"] == "repro-obs/metrics-v1"
        metrics = obj["metrics"]
        assert metrics["repro_a_total"]["type"] == "counter"
        assert metrics["repro_a_total"]["values"][0]["labels"] == {"kind": "x"}
        assert metrics["repro_g"]["type"] == "gauge"

    def test_json_round_trip(self):
        # Every series survives the export: type, help, labels and value.
        reg = MetricsRegistry()
        reg.counter("repro_a_total", "A.").inc(3.0, kind="x")
        reg.gauge("repro_g").set(1.5, node="2")
        metrics = json.loads(reg.to_json())["metrics"]
        assert metrics == {
            "repro_a_total": {
                "type": "counter",
                "help": "A.",
                "values": [{"labels": {"kind": "x"}, "value": 3.0}],
            },
            "repro_g": {
                "type": "gauge",
                "help": "",
                "values": [{"labels": {"node": "2"}, "value": 1.5}],
            },
        }

    def test_registry_pickles(self):
        # ScenarioResult.metrics crosses the REPRO_JOBS process pool.
        reg = MetricsRegistry()
        reg.counter("repro_a_total").inc(5.0, kind="x")
        reg.gauge("repro_g").set(1.5)
        back = pickle.loads(pickle.dumps(reg))
        assert back.counter("repro_a_total").value(kind="x") == 5.0
        assert back.to_prometheus() == reg.to_prometheus()
