"""Unified, seeded fault injection and retry/backoff recovery.

The paper's availability argument (§1, §3) only holds if the incentive
mechanism keeps paths alive *under failure* — churn, lost messages,
crashed forwarders, an unreachable bank.  This module is the single
place all of those failures are injected from:

- :class:`FaultPlan` — a declarative, composable description of what can
  go wrong: per-:class:`~repro.network.transport.MessageKind` drop and
  delay probabilities, per-hop message loss during path formation,
  mid-round forwarder crashes, probe timeouts, and bank/escrow outage
  windows.  A plan is pure data (frozen, comparable); the all-zero plan
  is the identity — injecting it changes nothing, bit for bit.
- :class:`FaultInjector` — the runtime: one seeded generator drives all
  fault draws, a clock callback supplies simulation time for outage
  windows, and a :class:`~repro.sim.monitoring.DegradationCounters`
  instance records every injected fault and every recovery action.
  Every ``maybe_*`` style query short-circuits *before* drawing when its
  probability is zero, so a zero channel consumes no randomness — this
  is what makes the zero plan bit-identical to no plan at all.
- :class:`RetryPolicy` — capped exponential backoff with deterministic,
  RNG-driven jitter.  Path establishment, probing and settlement share
  this one policy type; delays are in simulated minutes.
- :class:`BankUnavailable` — raised by the payment layer while the bank
  is inside an outage window; the recovery layer defers and retries the
  settlement.

Layering: this module lives in ``repro.sim`` (the substrate) and knows
nothing about overlays, paths or banks.  Message kinds are plain strings
(the ``MessageKind.value``), crashes are reported through an injectable
``on_crash`` callback, and the bank consults :meth:`FaultInjector.
bank_available` through a plain callable — the consumers adapt to the
injector, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from repro.obs.events import EventBus
from repro.sim.monitoring import DegradationCounters


class FaultError(Exception):
    """Base class for injected-fault failures."""


class BankUnavailable(FaultError):
    """The bank/escrow service is inside an injected outage window."""


def _check_probability(name: str, p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {p}")


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of every injectable failure.

    Parameters
    ----------
    drop, delay:
        Per-message-kind channels keyed by the transport's
        ``MessageKind.value`` string (``"payload"``, ``"confirmation"``,
        ...): ``drop[kind]`` is the probability a message of that kind is
        lost in transit, ``delay[kind]`` the mean of an exponential extra
        transfer delay (minutes).
    hop_loss:
        Per-hop probability that a contract/payload hop is lost during
        path formation, tearing the partial path down (one reformation).
        This is the unified successor of the legacy
        ``PathBuilder.loss_probability`` knob.
    forwarder_crash:
        Per-hop probability that the freshly selected forwarder crashes
        mid-round: the partial path tears down *and* the node drops
        offline (via the injector's ``on_crash`` callback) for
        ``crash_downtime`` minutes.
    probe_timeout:
        Probability that a probe of a live neighbour times out; the
        prober retries per its :class:`RetryPolicy` and declares the
        neighbour dead if every attempt times out.
    bank_outages:
        ``(start, end)`` windows of simulated time during which every
        bank/escrow operation raises :class:`BankUnavailable`.
    """

    drop: Mapping[str, float] = field(default_factory=dict)
    delay: Mapping[str, float] = field(default_factory=dict)
    hop_loss: float = 0.0
    forwarder_crash: float = 0.0
    crash_downtime: float = 30.0
    probe_timeout: float = 0.0
    bank_outages: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        for kind, p in self.drop.items():
            _check_probability(f"drop[{kind!r}]", p)
        for kind, d in self.delay.items():
            if d < 0:
                raise ValueError(f"delay[{kind!r}] must be >= 0, got {d}")
        _check_probability("hop_loss", self.hop_loss)
        _check_probability("forwarder_crash", self.forwarder_crash)
        _check_probability("probe_timeout", self.probe_timeout)
        if self.crash_downtime < 0:
            raise ValueError(f"crash_downtime must be >= 0, got {self.crash_downtime}")
        for window in self.bank_outages:
            start, end = window
            if start < 0 or end <= start:
                raise ValueError(f"bank outage window must satisfy 0 <= start < end, got {window}")

    @classmethod
    def none(cls) -> "FaultPlan":
        """The identity plan: injects nothing."""
        return cls()

    @classmethod
    def uniform(cls, severity: float, crash_downtime: float = 30.0) -> "FaultPlan":
        """One-knob plan: every probabilistic channel scales with
        ``severity`` in [0, 1) (crashes at a quarter rate — they are the
        most disruptive channel)."""
        _check_probability("severity", severity)
        if severity == 0.0:
            return cls()
        return cls(
            drop={"payload": severity / 2.0, "confirmation": severity / 2.0},
            hop_loss=severity,
            forwarder_crash=severity / 4.0,
            crash_downtime=crash_downtime,
            probe_timeout=severity / 2.0,
        )

    def is_zero(self) -> bool:
        """True when this plan cannot inject anything (the identity)."""
        return (
            all(p == 0.0 for p in self.drop.values())
            and all(d == 0.0 for d in self.delay.values())
            and self.hop_loss == 0.0
            and self.forwarder_crash == 0.0
            and self.probe_timeout == 0.0
            and not self.bank_outages
        )

    def with_hop_loss(self, hop_loss: float) -> "FaultPlan":
        """Copy with ``hop_loss`` replaced (legacy ``loss_probability``
        folding)."""
        return replace(self, hop_loss=hop_loss)

    def bank_available_at(self, now: float) -> bool:
        """Pure window check (no counters): is the bank up at ``now``?"""
        return not any(start <= now < end for start, end in self.bank_outages)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: delay ``i`` is
    ``min(base_delay * multiplier**i, max_delay)``, jittered by a
    deterministic RNG draw to ``+/- jitter`` relative.

    ``max_retries`` counts *re*-tries: an operation is attempted at most
    ``max_retries + 1`` times.  With ``jitter == 0`` (or no generator
    supplied) no randomness is consumed at all.
    """

    max_retries: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.1

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay <= 0 or self.max_delay <= 0:
            raise ValueError("backoff delays must be positive")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """No retries (the operation runs exactly once)."""
        return cls(max_retries=0, jitter=0.0)

    def delay(self, attempt: int, rng: Optional[np.random.Generator] = None) -> float:
        """Backoff delay before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        d = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter > 0.0 and rng is not None:
            d *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return d

    def call(
        self,
        fn: Callable[[], object],
        rng: Optional[np.random.Generator] = None,
        retry_on: Tuple[type, ...] = (FaultError,),
        sleep: Optional[Callable[[float], None]] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ):
        """Synchronous retry executor: call ``fn`` until it succeeds or the
        policy is exhausted, then re-raise the last exception.

        ``sleep(delay)`` (when given) is invoked between attempts —
        simulation callers pass a wall-clock-free stub; ``on_retry(i, exc)``
        observes each failure before its retry.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except retry_on as exc:
                if attempt >= self.max_retries:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                if sleep is not None:
                    sleep(self.delay(attempt, rng))
                attempt += 1


@dataclass
class FaultInjector:
    """Runtime fault source: one plan, one seeded generator, one counter set.

    Every query short-circuits before touching the generator when its
    channel probability is zero, so an all-zero plan consumes no
    randomness — injecting ``FaultPlan.none()`` is bit-identical to not
    injecting at all.

    ``clock`` supplies the current simulation time for outage-window
    checks; ``on_crash(node_id)`` (wired by the scenario) takes a crashed
    forwarder offline and schedules its recovery.
    """

    plan: FaultPlan
    rng: np.random.Generator
    clock: Callable[[], float] = field(default=lambda: 0.0)
    stats: DegradationCounters = field(default_factory=DegradationCounters)
    on_crash: Optional[Callable[[int], None]] = None
    #: Optional structured event bus (``fault.*`` / ``bank.denial``
    #: events).  Emission happens strictly *after* the RNG draw and the
    #: counter update, so attaching a bus never changes a decision.
    bus: Optional[EventBus] = field(default=None, repr=False)

    def now(self) -> float:
        return float(self.clock())

    # -- transport faults --------------------------------------------------
    def drop_message(self, kind: str) -> bool:
        """Should a message of this kind be lost in transit?"""
        p = self.plan.drop.get(kind, 0.0)
        if p <= 0.0:
            return False
        if float(self.rng.random()) < p:
            self.stats.messages_dropped += 1
            if self.bus is not None:
                # "message" (not "kind"): the event's own kind is the
                # taxonomy string; this is the transport MessageKind.
                self.bus.emit("fault.drop", message=kind)
            return True
        return False

    def message_delay(self, kind: str) -> float:
        """Extra transfer delay for this kind (0 when the channel is off)."""
        mean = self.plan.delay.get(kind, 0.0)
        if mean <= 0.0:
            return 0.0
        self.stats.messages_delayed += 1
        d = float(self.rng.exponential(mean))
        if self.bus is not None:
            self.bus.emit("fault.delay", message=kind, delay=d)
        return d

    # -- path-formation faults ---------------------------------------------
    def lose_hop(self) -> bool:
        """Is this path-formation hop lost (forcing a reformation)?"""
        p = self.plan.hop_loss
        if p <= 0.0:
            return False
        if float(self.rng.random()) < p:
            self.stats.hops_lost += 1
            if self.bus is not None:
                self.bus.emit("fault.hop_loss")
            return True
        return False

    def crash_forwarder(self, node_id: Optional[int] = None) -> bool:
        """Does the freshly selected forwarder crash mid-round?

        On a crash, the wired ``on_crash`` callback (if any) is invoked
        with the victim so the caller's overlay can take it offline.
        """
        p = self.plan.forwarder_crash
        if p <= 0.0:
            return False
        if float(self.rng.random()) < p:
            self.stats.forwarder_crashes += 1
            if self.bus is not None:
                self.bus.emit("fault.crash", node=node_id)
            if self.on_crash is not None and node_id is not None:
                self.on_crash(node_id)
            return True
        return False

    # -- probing faults ----------------------------------------------------
    def probe_times_out(self) -> bool:
        """Does one probe attempt of a live neighbour time out?"""
        p = self.plan.probe_timeout
        if p <= 0.0:
            return False
        if float(self.rng.random()) < p:
            self.stats.probe_timeouts += 1
            if self.bus is not None:
                self.bus.emit("fault.probe_timeout")
            return True
        return False

    # -- bank outages ------------------------------------------------------
    def bank_available(self, now: Optional[float] = None) -> bool:
        """Is the bank reachable?  Counts a denial when it is not."""
        t = self.now() if now is None else now
        if self.plan.bank_available_at(t):
            return True
        self.stats.bank_denials += 1
        if self.bus is not None:
            self.bus.emit("bank.denial", at=t)
        return False
