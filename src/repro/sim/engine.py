"""The discrete-event simulator core.

A :class:`Simulator` owns a time-ordered event heap and advances simulated
time by processing events in (time, insertion-order) order.  All model state
changes happen inside event callbacks, which in practice means inside
coroutine *processes* (:mod:`repro.sim.process`).

Determinism: ties in time are broken by a monotonically increasing sequence
number, so two runs of the same model produce identical schedules.  Events
triggered for the current instant skip the heap for a FIFO deque that
fires after the heap entries due now, which is the order the heap would
give them (see :meth:`Simulator._loop`).
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from heapq import heappop
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from ..errors import DeadlockError, SimulationError
from .event import PROCESSED, Event, Name, Timeout
from .process import Process
from .trace import NULL_TRACER, get_default_tracer


_INF = float("inf")


class Simulator:
    """Event loop for one simulated system.

    Attributes
    ----------
    now:
        Current simulated time in seconds.
    tracer:
        The observability tracer models report to (``self.sim.tracer``).
        Defaults to the process-wide default (normally the zero-cost
        :data:`~repro.sim.trace.NULL_TRACER`); install a real one with
        :meth:`set_tracer` or :func:`repro.sim.trace.set_default_tracer`.
    rng:
        The simulation's seeded random stream (``random.Random``) — the ONLY
        source of randomness models may use, so that two simulators built
        with the same ``seed`` replay byte-identically.  Never seeded from
        wall-clock: the default seed is 0.
    packet_seq:
        The counter network packets draw their trace id (``Packet.seq``)
        from, so two simulators built alike trace the same ids whatever
        ran earlier in the process.
    """

    def __init__(self, tracer=None, seed: int = 0) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq: int = 0
        #: Events triggered for the current instant, in trigger order.
        self._ready: Deque[Event] = deque()
        self._processes: Dict[Any, None] = {}   # live, in spawn order
        #: Unobserved failures as (sim time, event); see :meth:`_exit`.
        self._failures: List[Tuple[float, Event]] = []
        #: Events processed since construction.  Deterministic for a given
        #: model + seed, which makes it the machine-independent proxy for
        #: simulator work that the bench harness tracks alongside raw
        #: wall-clock (``python -m repro bench``).
        self.events_processed: int = 0
        self.seed = seed
        self.rng = random.Random(seed)
        self.packet_seq = itertools.count()
        self.tracer = tracer if tracer is not None else get_default_tracer()
        if self.tracer is not NULL_TRACER:
            self.tracer.bind(self)

    def set_tracer(self, tracer) -> None:
        """Install ``tracer`` (binding it to this simulator's clock)."""
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind(self)

    # -- time -----------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    # -- event construction -----------------------------------------------------
    def event(self, name: Name = "") -> Event:
        """A fresh pending event bound to this simulator."""
        return Event(self, name)

    def timeout(self, delay: float) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay)

    def process(self, generator: Generator, name: Name = "") -> Process:
        """Spawn a coroutine process (see :mod:`repro.sim.process`)."""
        return Process(self, generator, name)

    def call_later(self, delay: float, fn: Callable[[], None],
                   name: str = "") -> None:
        """Run ``fn()`` after ``delay`` seconds of simulated time.

        One heap entry, no coroutine machinery — the cheapest way to hook
        periodic observers (e.g. the telemetry sampler) onto the event
        loop; ``fn`` may re-arm itself by calling :meth:`call_later` again.
        """
        Timeout(self, delay, name=name or "call_later").callbacks.append(
            lambda _ev: fn())

    # -- running ----------------------------------------------------------------
    def _loop(self, horizon: float, left: List[int]) -> None:
        """Process events in (time, seq) order until ``left[0]`` is 0, the
        schedule drains, or the next event lies past ``horizon``.

        The next event is the heap's top while it is due now, else the
        head of ``_ready``, else the heap's top at a later time.  That is
        (time, seq) order: a heap entry due now was pushed before the
        clock got here, ahead of every same-instant trigger, and those
        fire in push order.  ``_ready`` holds only events due now, since
        the clock moves on only once it is empty.

        Processing an event sets it processed and runs its callbacks; a
        failure with no callback to observe it is recorded, and the run
        call raises it on exit (see :meth:`_exit`).
        """
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        now = self._now
        if now > horizon:       # a time limit already behind the clock
            return
        while left[0]:
            if ready and not (heap and heap[0][0] == now):
                event = popleft()
            elif heap:
                when = heap[0][0]
                if when > horizon:
                    return
                if when < now:  # pragma: no cover - delays are never negative
                    raise SimulationError("time went backwards")
                event = heappop(heap)[2]
                self._now = now = when
            else:
                return
            self.events_processed += 1
            event._state = PROCESSED
            callbacks = event.callbacks
            if callbacks:
                event.callbacks = []
                for cb in callbacks:
                    cb(event)
            elif event._ok is False:
                self._failures.append((now, event))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or simulated time reaches ``until``.

        Raises
        ------
        DeadlockError
            If the schedule drains while processes are still alive and no
            ``until`` horizon was given (the model is stuck) — unless a
            failure nothing observed is raised instead (see :meth:`_exit`).
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until!r} is in the past (now={self._now!r})")
        self._loop(_INF if until is None else until, [1])
        if until is not None:
            self._now = until
        self._exit(self._deadlock("schedule drained")
                   if until is None and self._processes else None)

    def run_until_complete(self, *events: Event, limit: Optional[float] = None) -> None:
        """Run until every event in ``events`` has been processed.

        An awaited event that fails ends the run, which raises its
        exception.  ``limit`` bounds simulated time; exceeding it raises
        :class:`SimulationError` (useful to catch livelocks in tests).
        """
        if not events:
            raise SimulationError("run_until_complete() needs at least one event")
        left = [len(events)]

        def awaited(ev: Event) -> None:
            left[0] -= 1
            if not ev._ok:
                self._failures.append((self._now, ev))
                left[0] = 0

        for ev in events:
            ev.add_callback(awaited)
        self._loop(_INF if limit is None else limit, left)
        stuck = None
        if left[0] > 0:
            if not self._heap and not self._ready:
                stuck = self._deadlock(
                    "schedule drained before awaited events completed: "
                    + ", ".join(repr(e) for e in events if not e.processed))
            else:
                stuck = SimulationError(f"simulated time limit {limit!r}s exceeded")
        for ev in events:
            if not ev.processed:      # nobody awaits it any more
                ev.callbacks.remove(awaited)
        self._exit(stuck)

    def _exit(self, stuck: Optional[SimulationError]) -> None:
        """The one way out of :meth:`run` and :meth:`run_until_complete`:
        raise the first recorded failure — ahead of ``stuck`` (a deadlock or
        the time limit), which it usually caused — chained from a
        :class:`SimulationError` naming its origin and sim time."""
        if self._failures:
            (when, event), more = self._failures[0], len(self._failures) - 1
            self._failures = []
            origin = SimulationError(
                f"{type(event).__name__} {event.name!r} failed at t={when:.9g}s"
                + (f"; {more} more failure(s) in this run" if more else "")
                + (f"; the run then stopped: {stuck}" if stuck else ""))
            origin.__cause__ = event._value.__cause__
            raise event._value from origin
        if stuck is not None:
            raise stuck

    def _deadlock(self, what: str, shown: int = 20) -> DeadlockError:
        """A :class:`DeadlockError` naming each stuck process (the first
        ``shown``) and the event it waits on."""
        stuck = list(self._processes)
        lines = [f"{what}; {len(stuck)} process(es) still waiting:"]
        lines += [f"  {proc.name!r} waiting on {proc._waiting_on!r}"
                  for proc in stuck[:shown]]
        if len(stuck) > shown:
            lines.append(f"  ... and {len(stuck) - shown} more")
        return DeadlockError("\n".join(lines))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        queued = len(self._heap) + len(self._ready)
        return f"<Simulator now={self._now:g} queued={queued}>"
