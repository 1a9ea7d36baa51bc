"""Generator-based processes for the discrete-event kernel."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an :class:`Event` that succeeds with the
    generator's return value (or fails with its uncaught exception), so
    processes can wait for each other::

        def child(env):
            yield env.timeout(5)
            return 42

        def parent(env):
            value = yield env.process(child(env))   # value == 42
    """

    def __init__(self, env: "Environment", generator: ProcessGenerator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None if resumable).
        self.target: Event | None = None
        # Kick the process off at the current simulation time.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not exited."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self.triggered:
            raise RuntimeError("cannot interrupt a dead process")
        carrier = Event(self.env)
        carrier._ok = False
        carrier._value = Interrupt(cause)
        carrier.defused = True
        # Detach from the current target so the stale resume is ignored.
        if self.target is not None and self.target.callbacks is not None:
            try:
                self.target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
            self.target = None
        carrier.callbacks.append(self._resume)
        self.env.schedule(carrier, priority=0)

    def _resume(self, event: Event) -> None:
        try:
            while True:
                if event._ok:
                    try:
                        next_ev = self._generator.send(event._value)
                    except StopIteration as exc:
                        self.succeed(exc.value)
                        break
                else:
                    event.defused = True
                    try:
                        next_ev = self._generator.throw(event._value)
                    except StopIteration as exc:
                        self.succeed(exc.value)
                        break
                if not isinstance(next_ev, Event):
                    raise RuntimeError(
                        f"process yielded a non-event: {next_ev!r}"
                    )
                if next_ev.processed:
                    # Already done: loop immediately with its outcome.
                    event = next_ev
                    continue
                next_ev.callbacks.append(self._resume)
                self.target = next_ev
                break
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
                raise
            self.fail(exc)
