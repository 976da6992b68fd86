"""Events — the unit of synchronization in the discrete-event engine.

An :class:`Event` starts *pending*, is *triggered* exactly once (either
succeeded with a value or failed with an exception), and then runs its
callbacks when the simulator processes it.  Processes wait on events by
``yield``-ing them; see :mod:`repro.sim.process`.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional, TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator


class EventState(enum.Enum):
    PENDING = "pending"
    TRIGGERED = "triggered"  # scheduled, callbacks not yet run
    PROCESSED = "processed"  # callbacks have run


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    sim:
        The owning simulator.  Events are bound to exactly one simulator.
    name:
        Optional label used by tracing and ``repr``.
    """

    __slots__ = ("sim", "name", "_state", "_value", "_ok", "callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._state = EventState.PENDING
        self._value: Any = None
        self._ok: Optional[bool] = None
        self.callbacks: List[Callable[["Event"], None]] = []

    # -- state inspection ---------------------------------------------------
    @property
    def state(self) -> EventState:
        return self._state

    @property
    def pending(self) -> bool:
        return self._state is EventState.PENDING

    @property
    def triggered(self) -> bool:
        return self._state is not EventState.PENDING

    @property
    def processed(self) -> bool:
        return self._state is EventState.PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or the failure exception."""
        if self._state is EventState.PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, scheduling callbacks after
        ``delay`` seconds of simulated time."""
        self._trigger(True, value, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc, delay)
        return self

    def _trigger(self, ok: bool, value: Any, delay: float) -> None:
        if self._state is not EventState.PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0.0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._state = EventState.TRIGGERED
        self._ok = ok
        self._value = value
        self.sim._schedule(self, delay)

    def _run_callbacks(self) -> None:
        """Called by the simulator when the event's time arrives.  A failure
        with no callback to observe it is handed to the simulator, which
        raises it when the current run call exits."""
        self._state = EventState.PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        if not callbacks and self._ok is False:
            self.sim._failures.append((self.sim._now, self))
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event is processed.  If the event
        was already processed the callback runs immediately."""
        if self._state is EventState.PROCESSED:
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
                 name: str = "") -> None:
        if delay < 0.0:
            raise SimulationError(f"negative timeout: {delay!r}")
        super().__init__(sim, name or f"timeout({delay:g})")
        self.delay = delay
        self.succeed(value, delay=delay)
