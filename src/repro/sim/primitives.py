"""Composite wait condition: wait for all of several events."""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from ..errors import SimulationError
from .event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator


class AllOf(Event):
    """Succeeds when every child event has succeeded.

    The value is a dict mapping each child event to its value, preserving the
    order the children were given in.  Fails as soon as any child fails.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: List[Event], name: str = "") -> None:
        super().__init__(sim, name or "all_of")
        if not events:
            raise SimulationError("AllOf needs at least one event")
        self._children = list(events)
        self._remaining = len(self._children)
        for ev in self._children:
            if ev.sim is not sim:
                raise SimulationError("AllOf mixes events from different simulators")
            ev.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            values: Dict[Event, object] = {ev: ev.value for ev in self._children}
            self.succeed(values)

