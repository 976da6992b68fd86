"""Threshold counters — the arming primitive of triggered operations.

A :class:`TriggerCounter` is a first-class sim object owned by a
:class:`~repro.triggered.unit.TriggeredUnit`.  It only ever counts *up*:
model code ticks it from completion hooks (puts-with-counting, CQE
listeners), kernels tick it with one 8-byte counter-doorbell store, and
chains tick it when they complete (chain-to-chain dependencies).

Watches fire the moment ``value >= threshold`` becomes true — including at
registration time if the counter is already past the threshold, which is
what makes ``arm()``-then-``tick()`` and ``tick()``-then-``arm()`` order-
independent.  Watches at the same tick fire in registration order, so two
runs of the same model replay identically.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import TriggeredError


class CounterWatch:
    """One armed threshold on a counter."""

    __slots__ = ("counter", "threshold", "callback", "fired")

    def __init__(self, counter: "TriggerCounter", threshold: int,
                 callback: Callable[[], None]) -> None:
        self.counter = counter
        self.threshold = threshold
        self.callback: Optional[Callable[[], None]] = callback
        self.fired = False

    @property
    def active(self) -> bool:
        return not self.fired

    def _fire(self) -> None:
        cb, self.callback = self.callback, None
        self.fired = True
        cb()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "armed"
        return (f"<CounterWatch {self.counter.name}>="
                f"{self.threshold} {state}>")


class TriggerCounter:
    """A monotonically increasing completion counter with threshold watches."""

    def __init__(self, unit, counter_id: int, name: str = "") -> None:
        self.unit = unit
        self.id = counter_id
        self.name = name or f"counter{counter_id}"
        self.value = 0
        self.ticks = 0
        self._watches: List[CounterWatch] = []

    def add(self, amount: int = 1) -> None:
        """Tick the counter and fire every watch whose threshold the new
        value reaches, in registration order."""
        if amount <= 0:
            raise TriggeredError(
                f"{self.name}: counters only count up (amount={amount})")
        self.value += amount
        self.ticks += 1
        self.unit.stats.counter_ticks += 1
        self._sweep()

    def watch(self, threshold: int, callback: Callable[[], None],
              ) -> CounterWatch:
        """Fire ``callback`` once when ``value >= threshold``; immediately
        if that already holds.  Returns the watch."""
        if threshold < 0:
            raise TriggeredError(
                f"{self.name}: negative threshold {threshold}")
        w = CounterWatch(self, threshold, callback)
        if self.value >= threshold:
            w._fire()
        else:
            self._watches.append(w)
        return w

    def _sweep(self) -> None:
        # A firing callback may arm new watches (chain DAGs) or tick other
        # counters; sweep a snapshot and keep whatever is still pending.
        if not self._watches:
            return
        ready = [w for w in self._watches
                 if w.active and self.value >= w.threshold]
        if not ready:
            self._watches = [w for w in self._watches if w.active]
            return
        self._watches = [w for w in self._watches
                         if w.active and self.value < w.threshold]
        for w in ready:
            w._fire()

    @property
    def armed_watches(self) -> int:
        return sum(1 for w in self._watches if w.active)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TriggerCounter {self.name} value={self.value} "
                f"watches={self.armed_watches}>")
