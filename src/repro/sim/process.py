"""Coroutine processes.

A *process* wraps a Python generator.  The generator ``yield``s
:class:`~repro.sim.event.Event` instances (or other processes, which are
themselves events); the process suspends until the yielded event fires and
then resumes with the event's value (or with the event's exception thrown
into the generator, so models can use ordinary ``try/except``).

A process is itself an event that succeeds with the generator's return value,
so processes compose: ``yield other_process`` joins it.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from ..errors import SimulationError
from .event import PROCESSED, Event, Name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator


class Process(Event):
    """A running coroutine.  Succeeds when the generator returns."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator, name: Name = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__} "
                "(did you forget a 'yield'?)"
            )
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Event | None = None
        sim._processes[self] = None
        # Kick off the coroutine via an immediately-scheduled event so that
        # process start order is deterministic and start happens *inside* the
        # event loop.
        start = Event(sim, ("start:{.name}", self))
        start.callbacks.append(self._resume)
        start.succeed()

    # -- engine plumbing ------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        try:
            if trigger._ok:
                nxt = self._generator.send(trigger._value)
            else:
                nxt = self._generator.throw(trigger._value)
            if not isinstance(nxt, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {nxt!r}; processes may "
                    "only yield Event instances")
            if nxt.sim is not self.sim:
                raise SimulationError("yielded an event from a different simulator")
        except StopIteration as stop:
            self._finish(True, stop.value)
        except Exception as exc:
            # Fail the process event so a joiner sees the exception; if
            # nothing joins, the simulator raises it when the run call exits.
            self._finish(False, exc)
        else:
            # What add_callback() does, without its frame.
            self._waiting_on = nxt
            if nxt._state is PROCESSED:
                self._resume(nxt)
            else:
                nxt.callbacks.append(self._resume)

    def _finish(self, ok: bool, value: Any) -> None:
        del self.sim._processes[self]
        if ok:
            self.succeed(value)
        else:
            self.fail(value)


def join_result(process: Process) -> Any:
    """Return a finished process's result, re-raising its failure (which
    the run call has already raised if nothing joined the process)."""
    if not process.processed and process.pending:
        raise SimulationError(f"{process!r} has not finished")
    if not process.ok:
        raise process.value
    return process.value
