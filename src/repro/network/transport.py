"""Message-level transport simulation: latency of anonymous paths.

The routing layer (:mod:`repro.core.protocol`) decides *who* forwards;
this layer simulates *how long* the forwarding takes.  Each link is a
shared, serialised channel (a :class:`~repro.sim.resources.Resource`):
transferring a payload occupies the link for ``size / bandwidth`` time
units plus a fixed propagation delay, and each node adds a processing
delay per forwarding instance.  Messages queue when links are busy.

The headline quantity is the **anonymity latency overhead**: an
L-forwarder path costs roughly L+1 transfers versus one direct transfer.
Because the utility models charge the transmission cost ``C^t`` (which is
inversely proportional to bandwidth) inside the forwarder's utility,
incentive routing systematically prefers fast links — a measurable
latency *benefit* over random routing, which the latency benchmark
quantifies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.network.bandwidth import BandwidthModel
from repro.core.path import Path
from repro.sim.engine import Environment
from repro.sim.faults import FaultInjector
from repro.sim.resources import Resource, Store

#: Per-hop propagation and per-node processing delays (minutes) of a
#: scenario's temporal mode (``ExperimentConfig.temporal_forwarding``).
TEMPORAL_PROPAGATION_DELAY = 0.005
TEMPORAL_PROCESSING_DELAY = 0.002


class MessageKind(enum.Enum):
    PAYLOAD = "payload"
    CONFIRMATION = "confirmation"


@dataclass(frozen=True)
class Message:
    """One protocol message in flight."""

    kind: MessageKind
    cid: int
    round_index: int
    sender: int
    receiver: int
    size: float
    sent_at: float

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"message size must be positive, got {self.size}")


@dataclass
class TransportNetwork:
    """Shared links + per-node inboxes on top of the DES kernel.

    Parameters
    ----------
    env, bandwidth:
        Simulation environment and the link-capacity model (shared with
        the cost model so utility decisions and latency agree).
    propagation_delay:
        Fixed per-hop delay added to the bandwidth-determined transfer
        time.
    processing_delay:
        Per-node forwarding overhead (crypto, queueing internals).
    """

    env: Environment
    bandwidth: BandwidthModel
    propagation_delay: float = 0.01
    processing_delay: float = 0.005
    #: Unified fault source (repro.sim.faults): messages may be dropped
    #: or delayed per :class:`MessageKind` according to the injector's
    #: plan.  None = perfect transport (today's behaviour).
    fault_injector: Optional[FaultInjector] = None
    _links: Dict[Tuple[int, int], Resource] = field(default_factory=dict, repr=False)
    inboxes: Dict[int, Store] = field(default_factory=dict, repr=False)
    delivered: List[Message] = field(default_factory=list)
    dropped: List[Message] = field(default_factory=list)

    def __post_init__(self):
        if self.propagation_delay < 0 or self.processing_delay < 0:
            raise ValueError("delays must be non-negative")

    def _link(self, a: int, b: int) -> Resource:
        key = (a, b) if a <= b else (b, a)
        res = self._links.get(key)
        if res is None:
            res = Resource(self.env, capacity=1)
            self._links[key] = res
        return res

    def inbox(self, node_id: int) -> Store:
        box = self.inboxes.get(node_id)
        if box is None:
            box = Store(self.env)
            self.inboxes[node_id] = box
        return box

    def transfer(self, message: Message):
        """Process: move one message over its link (queues if busy).

        Returns True when the message was delivered, False when the fault
        injector dropped it in transit (the link was still briefly
        occupied — a lost message consumes the channel like a real one).
        """
        link = self._link(message.sender, message.receiver)
        req = link.request()
        yield req
        try:
            duration = (
                self.bandwidth.transfer_time(
                    message.sender, message.receiver, message.size
                )
                + self.propagation_delay
            )
            if self.fault_injector is not None:
                duration += self.fault_injector.message_delay(message.kind.value)
            yield self.env.timeout(duration)
        finally:
            link.release(req)
        if self.fault_injector is not None and self.fault_injector.drop_message(
            message.kind.value
        ):
            self.dropped.append(message)
            return False
        self.delivered.append(message)
        yield self.inbox(message.receiver).put(message)
        return True

    def send_along_path(
        self,
        path: Path,
        payload_size: float = 1.0,
        confirmation_size: float = 0.05,
    ):
        """Process: full round trip of one connection round.

        Payload travels initiator -> forwarders -> responder; the
        confirmation returns over the reverse path.  Returns the
        (payload_latency, round_trip_latency) pair, or None when the
        fault injector dropped the payload or confirmation in transit
        (the round's transfer is lost; callers count a dropped round).

        Each hop's :meth:`transfer` runs inline (``yield from``), and a
        caller may run this generator inline too instead of starting it
        as a child process: the round then waits on the same link
        requests and timeouts, without a child's start and completion
        events.
        """
        start = self.env.now
        hops = list(zip(path.nodes[:-1], path.nodes[1:]))
        for sender, receiver in hops:
            msg = Message(
                kind=MessageKind.PAYLOAD,
                cid=path.cid,
                round_index=path.round_index,
                sender=sender,
                receiver=receiver,
                size=payload_size,
                sent_at=self.env.now,
            )
            delivered = yield from self.transfer(msg)
            if delivered is False:
                return None
            yield self.env.timeout(self.processing_delay)
        payload_latency = self.env.now - start
        for sender, receiver in reversed([(a, b) for a, b in hops]):
            msg = Message(
                kind=MessageKind.CONFIRMATION,
                cid=path.cid,
                round_index=path.round_index,
                sender=receiver,
                receiver=sender,
                size=confirmation_size,
                sent_at=self.env.now,
            )
            delivered = yield from self.transfer(msg)
            if delivered is False:
                return None
        round_trip = self.env.now - start
        return payload_latency, round_trip

    def direct_transfer_latency(self, a: int, b: int, payload_size: float = 1.0) -> float:
        """Analytic latency of an unanonymised direct transfer (baseline
        for the overhead metric; ignores queueing)."""
        return (
            self.bandwidth.transfer_time(a, b, payload_size)
            + self.propagation_delay
        )


def measure_path_latency(
    path: Path,
    bandwidth: BandwidthModel,
    payload_size: float = 1.0,
    propagation_delay: float = 0.01,
    processing_delay: float = 0.005,
) -> Dict[str, float]:
    """Run one round trip on a fresh environment and report latencies.

    Returns ``payload``, ``round_trip``, ``direct`` and ``overhead``
    (payload latency / direct latency).
    """
    env = Environment()
    net = TransportNetwork(
        env=env,
        bandwidth=bandwidth,
        propagation_delay=propagation_delay,
        processing_delay=processing_delay,
    )
    proc = env.process(net.send_along_path(path, payload_size=payload_size))
    payload_latency, round_trip = env.run(until=proc)
    direct = net.direct_transfer_latency(path.initiator, path.responder, payload_size)
    return {
        "payload": payload_latency,
        "round_trip": round_trip,
        "direct": direct,
        "overhead": payload_latency / direct if direct > 0 else float("inf"),
    }
