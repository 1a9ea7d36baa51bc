"""Tests for the message-level transport layer."""

import numpy as np
import pytest

from repro.core.path import Path
from repro.network.bandwidth import BandwidthModel
from repro.network.transport import (
    Message,
    MessageKind,
    TransportNetwork,
    measure_path_latency,
)
from repro.sim.engine import Environment
from repro.sim.faults import FaultInjector, FaultPlan


def make_net(seed=0, min_bw=2.0, max_bw=2.0, **kwargs):
    env = Environment()
    bw = BandwidthModel(
        rng=np.random.default_rng(seed), min_bandwidth=min_bw, max_bandwidth=max_bw
    )
    return env, TransportNetwork(env=env, bandwidth=bw, **kwargs)


def make_message(sender=0, receiver=1, size=1.0, env_time=0.0):
    return Message(
        kind=MessageKind.PAYLOAD,
        cid=1,
        round_index=1,
        sender=sender,
        receiver=receiver,
        size=size,
        sent_at=env_time,
    )


class TestTransfer:
    def test_transfer_takes_bandwidth_time(self):
        env, net = make_net(propagation_delay=0.0, processing_delay=0.0)
        proc = env.process(net.transfer(make_message(size=4.0)))
        env.run(until=proc)
        # bandwidth fixed at 2.0 -> 4/2 = 2 time units.
        assert env.now == pytest.approx(2.0)
        assert len(net.delivered) == 1

    def test_propagation_delay_added(self):
        env, net = make_net(propagation_delay=0.5, processing_delay=0.0)
        proc = env.process(net.transfer(make_message(size=2.0)))
        env.run(until=proc)
        assert env.now == pytest.approx(1.0 + 0.5)

    def test_message_lands_in_receiver_inbox(self):
        env, net = make_net()
        proc = env.process(net.transfer(make_message(receiver=7)))
        env.run(until=proc)
        assert len(net.inbox(7)) == 1
        assert net.inbox(7).items[0].sender == 0

    def test_link_serialises_concurrent_transfers(self):
        env, net = make_net(propagation_delay=0.0, processing_delay=0.0)
        done = []

        def send(env, net):
            yield env.process(net.transfer(make_message(size=2.0)))
            done.append(env.now)

        env.process(send(env, net))
        env.process(send(env, net))
        env.run()
        # Same link: second transfer waits for the first (1.0 each).
        assert done == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_different_links_parallel(self):
        env, net = make_net(propagation_delay=0.0, processing_delay=0.0)
        done = []

        def send(env, net, receiver):
            yield env.process(net.transfer(make_message(receiver=receiver, size=2.0)))
            done.append(env.now)

        env.process(send(env, net, 1))
        env.process(send(env, net, 2))
        env.run()
        assert done == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_message_validation(self):
        with pytest.raises(ValueError):
            make_message(size=0.0)

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            make_net(propagation_delay=-1.0)


class TestPathLatency:
    def path(self, forwarders):
        return Path(cid=1, round_index=1, initiator=0, responder=9,
                    forwarders=tuple(forwarders))

    def test_round_trip_longer_than_payload(self):
        stats = measure_path_latency(
            self.path([3, 5]),
            BandwidthModel(rng=np.random.default_rng(1)),
        )
        assert stats["round_trip"] > stats["payload"] > 0

    def test_overhead_grows_with_path_length(self):
        bw = BandwidthModel(
            rng=np.random.default_rng(2), min_bandwidth=2.0, max_bandwidth=2.0
        )
        short = measure_path_latency(self.path([3]), bw)
        long = measure_path_latency(self.path([3, 4, 5, 6]), bw)
        assert long["payload"] > short["payload"]
        assert long["overhead"] > short["overhead"]

    def test_overhead_scales_with_hop_count_on_uniform_links(self):
        bw = BandwidthModel(
            rng=np.random.default_rng(3), min_bandwidth=2.0, max_bandwidth=2.0
        )
        stats = measure_path_latency(
            self.path([3, 4]), bw, processing_delay=0.0, propagation_delay=0.0
        )
        # 3 hops of equal links vs 1 direct: exactly 3x.
        assert stats["overhead"] == pytest.approx(3.0)

    def test_deterministic(self):
        bw = BandwidthModel(rng=np.random.default_rng(4))
        a = measure_path_latency(self.path([3, 5]), bw)
        b = measure_path_latency(self.path([3, 5]), bw)
        assert a == b


class TestInlineRound:
    """``send_along_path`` run inline by a caller (``yield from``) and as
    a child process give the same round."""

    PATH = Path(cid=1, round_index=1, initiator=0, responder=9,
                forwarders=(3, 5, 4))

    def run_round(self, inline, drop=None, delay=None):
        injector = None
        if drop is not None or delay is not None:
            injector = FaultInjector(
                plan=FaultPlan(drop=drop or {}, delay=delay or {}),
                rng=np.random.default_rng(7),
            )
        env = Environment()
        net = TransportNetwork(
            env=env,
            bandwidth=BandwidthModel(rng=np.random.default_rng(11)),
            fault_injector=injector,
        )
        out = []

        def caller():
            yield env.timeout(1.0)
            if inline:
                result = yield from net.send_along_path(self.PATH)
            else:
                result = yield env.process(net.send_along_path(self.PATH))
            out.append((result, env.now))

        env.process(caller())
        env.run()
        return out[0], len(net.delivered), len(net.dropped)

    def test_same_latencies(self):
        inline = self.run_round(True, delay={"payload": 0.3})
        child = self.run_round(False, delay={"payload": 0.3})
        assert inline == child
        (latencies, _), delivered, _ = inline
        assert latencies[1] > latencies[0] > 0
        assert delivered == 8

    @pytest.mark.parametrize("kind", ["payload", "confirmation"])
    def test_same_none_on_injected_drop(self, kind):
        inline = self.run_round(True, drop={kind: 0.999})
        child = self.run_round(False, drop={kind: 0.999})
        assert inline == child
        (result, _), _, dropped = inline
        assert result is None
        assert dropped == 1
