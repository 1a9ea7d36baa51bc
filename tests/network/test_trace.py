"""Tests for the membership trace."""

import pytest

from repro.network.trace import NetworkTrace, TraceEventKind


def test_online_at_replays_history():
    t = NetworkTrace()
    t.join(0.0, 1)
    t.join(1.0, 2)
    t.leave(2.0, 1)
    t.join(3.0, 3)
    t.depart(4.0, 2)
    assert t.online_at(0.5) == frozenset({1})
    assert t.online_at(1.5) == frozenset({1, 2})
    assert t.online_at(2.5) == frozenset({2})
    assert t.online_at(3.5) == frozenset({2, 3})
    assert t.online_at(10.0) == frozenset({3})


def test_online_at_is_inclusive_of_event_time():
    t = NetworkTrace()
    t.join(5.0, 1)
    assert t.online_at(5.0) == frozenset({1})
    assert t.online_at(4.999) == frozenset()


def test_out_of_order_rejected():
    t = NetworkTrace()
    t.join(5.0, 1)
    with pytest.raises(ValueError):
        t.leave(4.0, 1)


def test_same_time_events_allowed():
    t = NetworkTrace()
    t.join(1.0, 1)
    t.join(1.0, 2)
    assert t.online_at(1.0) == frozenset({1, 2})


def test_len_counts_events():
    t = NetworkTrace()
    t.join(0.0, 1)
    t.leave(1.0, 1)
    assert len(t) == 2


def test_empty_trace_online_empty():
    assert NetworkTrace().online_at(100.0) == frozenset()


def test_event_kinds_recorded():
    t = NetworkTrace()
    t.join(0.0, 1)
    t.depart(1.0, 1)
    assert [e.kind for e in t.events] == [TraceEventKind.JOIN, TraceEventKind.DEPART]
