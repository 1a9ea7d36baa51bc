"""Shared-resource primitives for the discrete-event kernel.

SimPy-style synchronisation objects used by the transport layer (and
available to any model built on :mod:`repro.sim`):

- :class:`Resource` — a counted pool of slots; processes ``yield
  resource.request()`` and later ``resource.release(req)``.  FIFO
  granting.  Models link/CPU capacity.
- :class:`Store` — a FIFO queue of Python objects with blocking ``get``;
  models per-node message queues.

Both grant strictly in request order (determinism), and both support
non-blocking inspection (``count``, ``items``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A pool of ``capacity`` identical slots with FIFO granting."""

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot; hands it to the next queued request."""
        try:
            self._users.remove(request)
        except ValueError:
            raise RuntimeError("releasing a request that does not hold a slot")
        if self._queue:
            nxt = self._queue.popleft()
            self._users.append(nxt)
            nxt.succeed()


class StoreGet(Event):
    """A pending retrieval from a :class:`Store`."""


class Store:
    """A FIFO queue of arbitrary items with blocking ``get``."""

    def __init__(self, env: "Environment", capacity: "float | int" = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[tuple] = deque()

    def put(self, item: Any) -> Event:
        ev = Event(self.env)
        self._putters.append((ev, item))
        self._drain()
        return ev

    def get(self) -> StoreGet:
        ev = StoreGet(self.env)
        self._getters.append(ev)
        self._drain()
        return ev

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                ev, item = self._putters.popleft()
                self.items.append(item)
                ev.succeed()
                progressed = True
            while self._getters and self.items:
                ev = self._getters.popleft()
                ev.succeed(self.items.pop(0))
                progressed = True

    def __len__(self) -> int:
        return len(self.items)
