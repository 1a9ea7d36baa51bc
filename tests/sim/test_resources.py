"""Tests for Resource and Store."""

import pytest

from repro.sim.resources import Resource, Store


class TestResource:
    def test_grants_up_to_capacity_immediately(self, env):
        r = Resource(env, capacity=2)
        a, b = r.request(), r.request()
        assert a.triggered and b.triggered
        c = r.request()
        assert not c.triggered
        assert r.count == 2

    def test_release_hands_to_next_in_fifo_order(self, env):
        r = Resource(env, capacity=1)
        a = r.request()
        b = r.request()
        c = r.request()
        r.release(a)
        assert b.triggered and not c.triggered
        r.release(b)
        assert c.triggered

    def test_release_unheld_rejected(self, env):
        r = Resource(env, capacity=1)
        a = r.request()
        b = r.request()  # queued, not granted
        with pytest.raises(RuntimeError):
            r.release(b)

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_processes_serialise_on_resource(self, env):
        r = Resource(env, capacity=1)
        log = []

        def worker(env, name, hold):
            req = r.request()
            yield req
            log.append((env.now, name, "in"))
            yield env.timeout(hold)
            r.release(req)
            log.append((env.now, name, "out"))

        env.process(worker(env, "a", 5.0))
        env.process(worker(env, "b", 3.0))
        env.run()
        assert log == [
            (0.0, "a", "in"),
            (5.0, "a", "out"),
            (5.0, "b", "in"),
            (8.0, "b", "out"),
        ]


class TestStore:
    def test_fifo_order(self, env):
        s = Store(env)
        s.put("a")
        s.put("b")
        g1, g2 = s.get(), s.get()
        assert g1.value == "a" and g2.value == "b"

    def test_get_blocks_until_item(self, env):
        s = Store(env)
        received = []

        def consumer(env):
            item = yield s.get()
            received.append((env.now, item))

        def producer(env):
            yield env.timeout(3.0)
            yield s.put("msg")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert received == [(3.0, "msg")]

    def test_bounded_store_blocks_put(self, env):
        s = Store(env, capacity=1)
        s.put("x")
        blocked = s.put("y")
        assert not blocked.triggered
        assert s.get().value == "x"
        assert blocked.triggered
        assert s.items == ["y"]

    def test_len(self, env):
        s = Store(env)
        s.put(1)
        s.put(2)
        assert len(s) == 2

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)
