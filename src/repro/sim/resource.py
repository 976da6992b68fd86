"""Shared-resource primitives: counted resources, mutexes, and FIFO stores.

These model contention: a PCIe link serializing MMIO stores, an SM with a
bounded number of resident blocks, a NIC requester accepting one descriptor
at a time.  All wait queues are FIFO, which keeps runs deterministic.  They
are plain lists: a queue here holds a few entries at most, and an empty
list costs 56 B where an empty ``deque`` preallocates a 760 B block.
"""

from __future__ import annotations

from typing import Any, List, TYPE_CHECKING

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
        self._waiters: List[Event] = []

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
            self._waiters.pop(0).succeed()
        else:
            self._in_use -= 1


class Mutex(Resource):
    """A capacity-1 resource."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        super().__init__(sim, capacity=1, name=name)


class Store:
    """An unbounded FIFO channel of Python objects.

    ``put`` returns an event that fires once the item is accepted, which is
    at once; ``get`` returns an event that fires with the next item.  This
    is the mailbox used between pipeline stages (e.g. NIC units handing
    descriptors to each other).

    A store never holds items and waiting getters at the same time: a put
    hands its item to the oldest getter if one waits, and a get takes the
    oldest item if one is buffered.  So one list holds whichever side is
    waiting, and ``_getting`` says which.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: Buffered items, or the getters waiting for one, oldest first.
        self._queue: List[Any] = []
        self._getting = False   # whether ``_queue`` holds getters

    def __len__(self) -> int:
        """The number of buffered items."""
        return 0 if self._getting else len(self._queue)

    def put(self, item: Any) -> Event:
        ev = Event(self.sim, ("put:{}", self.name))
        if self._getting:
            # Hand straight to the oldest waiting consumer.
            queue = self._queue
            getter = queue.pop(0)
            if not queue:
                self._getting = False
            getter.succeed(item)
        else:
            self._queue.append(item)
        ev.succeed()
        return ev

    def get(self) -> Event:
        ev = Event(self.sim, ("get:{}", self.name))
        if self._getting or not self._queue:
            self._queue.append(ev)
            self._getting = True
        else:
            ev.succeed(self._queue.pop(0))
        return ev
