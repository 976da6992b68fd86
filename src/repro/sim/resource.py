"""Shared-resource primitives: counted resources, mutexes, and FIFO stores.

These model contention: a PCIe link serializing MMIO stores, an SM with a
bounded number of resident blocks, a NIC requester accepting one descriptor
at a time.  All wait queues are FIFO, which keeps runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, TYPE_CHECKING

from ..errors import SimulationError
from .event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator


class Resource:
    """A counted resource with ``capacity`` concurrent slots.

    Usage from a process::

        req = resource.acquire()
        yield req
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """An event that fires when a slot is granted to the caller."""
        ev = Event(self.sim, ("acquire:{}", self.name))
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a slot; hands it directly to the longest-waiting acquirer."""
        if self._in_use <= 0:
            raise SimulationError(f"release() without acquire on {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Mutex(Resource):
    """A capacity-1 resource."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        super().__init__(sim, capacity=1, name=name)


class Store:
    """An unbounded-or-bounded FIFO channel of Python objects.

    ``put`` returns an event that fires once the item is accepted (immediately
    unless the store is bounded and full); ``get`` returns an event that fires
    with the next item.  This is the mailbox used between pipeline stages
    (e.g. NIC units handing descriptors to each other).
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None,
                 name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        ev = Event(self.sim, ("put:{}", self.name))
        if self._getters:
            # Hand straight to a waiting consumer.
            self._getters.popleft().succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        ev = Event(self.sim, ("get:{}", self.name))
        if self._items:
            item = self._items.popleft()
            # A blocked producer can now deposit its item.
            if self._putters:
                pev, pitem = self._putters.popleft()
                self._items.append(pitem)
                pev.succeed()
            ev.succeed(item)
        elif self._putters:
            pev, pitem = self._putters.popleft()
            pev.succeed()
            ev.succeed(pitem)
        else:
            self._getters.append(ev)
        return ev
