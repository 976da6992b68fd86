"""Events — the unit of synchronization in the discrete-event engine.

An :class:`Event` starts *pending*, is *triggered* exactly once (either
succeeded with a value or failed with an exception), and then runs its
callbacks when the simulator processes it.  Processes wait on events by
``yield``-ing them; see :mod:`repro.sim.process`.

Triggering for a later time pushes the event onto the simulator's heap as
``(now + delay, seq, event)``; equal times fire in ``seq`` order.
Triggering for the current instant (``now + delay == now``) appends it to
the simulator's ``_ready`` deque instead, which fires after every heap
entry due now (all pushed before the clock got here) and in push order:
the order the heap would give.  :meth:`Event.succeed` and
:class:`Timeout` make that push themselves, in one frame.
"""

from __future__ import annotations

import enum
from heapq import heappush
from typing import Any, Callable, List, Optional, Tuple, Union, TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator

#: An event label: a string, or a ``(template, *args)`` tuple that
#: ``template.format(*args)`` turns into the string the first time the
#: name is read.  Hot paths name their events lazily, since a name is read
#: only by tracing and error messages.
Name = Union[str, Tuple[Any, ...]]


class EventState(enum.Enum):
    PENDING = "pending"
    TRIGGERED = "triggered"  # scheduled, callbacks not yet run
    PROCESSED = "processed"  # callbacks have run


# Module aliases: the hot paths test states by identity without an enum
# attribute lookup.
PENDING = EventState.PENDING
TRIGGERED = EventState.TRIGGERED
PROCESSED = EventState.PROCESSED


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    sim:
        The owning simulator.  Events are bound to exactly one simulator.
    name:
        Optional label used by tracing and ``repr`` (see :data:`Name`).
    """

    __slots__ = ("sim", "_name", "_state", "_value", "_ok", "callbacks")

    def __init__(self, sim: "Simulator", name: Name = "") -> None:
        self.sim = sim
        self._name = name
        self._state = PENDING
        self._value: Any = None
        self._ok: Optional[bool] = None
        self.callbacks: List[Callable[["Event"], None]] = []

    @property
    def name(self) -> str:
        """The label; a ``(template, *args)`` name is formatted here once."""
        name = self._name
        if name.__class__ is tuple:
            name = self._name = name[0].format(*name[1:])
        return name

    @name.setter
    def name(self, name: Name) -> None:
        self._name = name

    # -- state inspection ---------------------------------------------------
    @property
    def state(self) -> EventState:
        return self._state

    @property
    def pending(self) -> bool:
        return self._state is PENDING

    @property
    def triggered(self) -> bool:
        return self._state is not PENDING

    @property
    def processed(self) -> bool:
        return self._state is PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or the failure exception."""
        if self._state is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, scheduling callbacks after
        ``delay`` seconds of simulated time."""
        if self._state is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0.0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        sim = self.sim
        now = sim._now
        when = now + delay
        if when == now:
            sim._ready.append(self)
        else:
            heappush(sim._heap, (when, sim._seq, self))
            sim._seq += 1
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self.succeed(exc, delay)
        # Nothing runs between the push and this store: callbacks run only
        # when the simulator pops the event.
        self._ok = False
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event is processed.  If the event
        was already processed the callback runs immediately."""
        if self._state is PROCESSED:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {self._state.value}>"


class Timeout(Event):
    """An event that succeeds after a fixed delay.  The canonical way for a
    process to spend simulated time."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: Name = "") -> None:
        if delay < 0.0:
            raise SimulationError(f"negative timeout: {delay!r}")
        # Event.__init__ and succeed() in one frame: a timeout is born
        # triggered, and its default name is formatted only if read.
        self.sim = sim
        self._name = name or ("timeout({:g})", delay)
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        self.callbacks = []
        self.delay = delay
        now = sim._now
        when = now + delay
        if when == now:
            sim._ready.append(self)
        else:
            heappush(sim._heap, (when, sim._seq, self))
            sim._seq += 1
