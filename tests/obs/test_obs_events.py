"""Event bus and JSONL trace round-trips."""

import numpy as np
import pytest

from repro.obs.events import TRACE_FORMAT_VERSION, EventBus, ObsEvent, RunTrace
from repro.obs.tracing import SpanTracer


class TestEventBus:
    def test_emit_stamps_seq_and_clock(self):
        now = {"t": 3.5}
        bus = EventBus(clock=lambda: now["t"])
        e0 = bus.emit("path.form", cid=1, round_index=0, node=7, n_forwarders=4)
        now["t"] = 9.0
        e1 = bus.emit("path.fail", cid=1)
        assert (e0.seq, e0.t) == (0, 3.5)
        assert (e1.seq, e1.t) == (1, 9.0)
        assert e0.data == {"n_forwarders": 4}
        assert len(bus) == 2

    def test_subsystem_prefix(self):
        assert ObsEvent(seq=0, t=0.0, kind="escrow.release").subsystem == "escrow"
        assert ObsEvent(seq=0, t=0.0, kind="noprefix").subsystem == "noprefix"

    def test_subscribers_stream_events(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("churn.join", node=3)
        bus.emit("churn.leave", node=3)
        assert [e.kind for e in seen] == ["churn.join", "churn.leave"]

    def test_counts_by_kind(self):
        bus = EventBus()
        bus.emit("probe.retry")
        bus.emit("probe.retry")
        bus.emit("probe.timeout")
        assert bus.counts_by_kind() == {"probe.retry": 2, "probe.timeout": 1}


class TestRunTrace:
    def _trace(self) -> RunTrace:
        bus = EventBus()
        bus.emit("path.form", cid=1, round_index=0, node=4, n_forwarders=3)
        bus.emit("hop.forward", cid=1, round_index=0, node=4, receiver=9)
        bus.emit("path.fail", cid=2, reason="attempts exhausted")
        tracer = SpanTracer()
        with tracer.span("path.build"):
            pass
        return RunTrace(
            meta={"seed": 7, "strategy": "utility-I"},
            events=list(bus.events),
            spans=list(tracer.spans),
        )

    def test_jsonl_roundtrip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.jsonl"
        n = trace.write_jsonl(path)
        # meta header + 3 events + 1 span
        assert n == 5
        first = path.read_text().splitlines()[0]
        assert f'"version": {TRACE_FORMAT_VERSION}' in first
        back = RunTrace.read_jsonl(path)
        assert back.meta == trace.meta
        assert back.events == trace.events
        assert back.spans == trace.spans

    def test_numpy_scalars_serialise(self, tmp_path):
        bus = EventBus()
        bus.emit("fault.delay", message="payload", delay=np.float64(1.5))
        trace = RunTrace(events=list(bus.events))
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(path)
        back = RunTrace.read_jsonl(path)
        assert back.events[0].data["delay"] == 1.5

    def test_read_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "version": 1}\nnot json\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            RunTrace.read_jsonl(path)

    def test_read_warns_on_unknown_type(self, tmp_path):
        # Forward compatibility: a newer writer's line kinds are skipped
        # with a warning, never a crash.
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "mystery"}\n'
            '{"type": "event", "seq": 0, "t": 1.0, "kind": "path.form"}\n'
        )
        with pytest.warns(UserWarning, match="unknown line type"):
            trace = RunTrace.read_jsonl(path)
        assert len(trace.events) == 1

    def test_reconstruction_helpers(self):
        trace = self._trace()
        assert trace.counts_by_subsystem()["path"] == {
            "path.form": 1,
            "path.fail": 1,
        }
        timeline = trace.series_timeline()
        assert [e.kind for e in timeline[1]] == ["path.form"]
        assert [e.kind for e in timeline[2]] == ["path.fail"]
        summary = trace.span_summary()
        assert summary["path.build"]["count"] == 1

    def test_time_range_empty(self):
        assert RunTrace().time_range() == (0.0, 0.0)
