"""Ring-buffered time series — the storage layer of the telemetry plane.

A :class:`Series` is a bounded list of ``(time, value)`` points with a
*kind*: ``counter`` points carry the **delta** observed in the sample
window ending at their timestamp, ``gauge`` points carry the level at the
timestamp.  The distinction matters for every consumer: rates divide
counter deltas by window length, while gauges are read as-is.

Window semantics (shared with the sampler and the SLO monitors): a point
stamped ``t`` describes the window ``(t - interval, t]``, so
:meth:`Series.window` selects points with ``w0 < t <= w1`` — half-open on
the left.  A sample taken exactly at a window's start belongs to the
*previous* window; one taken exactly at its end belongs to it.  This is
the boundary convention the window-clipping tests pin down.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, NamedTuple, Optional


class Point(NamedTuple):
    time: float
    value: float


class Series:
    """One bounded time series (``deque(maxlen=capacity)`` underneath)."""

    KINDS = ("counter", "gauge")

    __slots__ = ("name", "kind", "_points")

    def __init__(self, name: str, kind: str = "counter",
                 capacity: int = 4096) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"series kind must be one of {self.KINDS}, "
                             f"got {kind!r}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.kind = kind
        self._points: Deque[Point] = deque(maxlen=capacity)

    # -- writing -----------------------------------------------------------------
    def append(self, time: float, value: float) -> None:
        if self._points and time < self._points[-1].time:
            raise ValueError(
                f"series {self.name!r}: time went backwards "
                f"({time!r} after {self._points[-1].time!r})")
        self._points.append(Point(time, value))

    # -- reading -----------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._points.maxlen or 0

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def points(self) -> List[Point]:
        return list(self._points)

    @property
    def last(self) -> Optional[Point]:
        return self._points[-1] if self._points else None

    def window(self, w0: float, w1: float) -> List[Point]:
        """Points covering ``(w0, w1]`` — strictly after ``w0``, up to and
        including ``w1`` (see the module docstring for why)."""
        return [p for p in self._points if w0 < p.time <= w1]

    def total(self, w0: Optional[float] = None,
              w1: Optional[float] = None) -> float:
        """Sum of counter deltas in the window (whole series by default).
        Meaningless for gauges (use :attr:`last`)."""
        pts = (self._points if w0 is None and w1 is None
               else self.window(w0 if w0 is not None else float("-inf"),
                                w1 if w1 is not None else float("inf")))
        return sum(p.value for p in pts)

    def rate(self, w0: float, w1: float) -> Optional[float]:
        """Counter deltas per second over ``(w0, w1]``; None if the window
        is empty or degenerate."""
        if w1 <= w0:
            return None
        pts = self.window(w0, w1)
        if not pts:
            return None
        return sum(p.value for p in pts) / (w1 - w0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        last = f" last={self._points[-1].value:g}" if self._points else ""
        return (f"<Series {self.name} kind={self.kind} "
                f"n={len(self._points)}{last}>")


class SeriesBank:
    """Named series created on first use, all sharing one capacity."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._series: Dict[str, Series] = {}

    def series(self, name: str, kind: str = "counter") -> Series:
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = Series(name, kind, self.capacity)
        elif s.kind != kind:
            raise ValueError(f"series {name!r} already exists as "
                             f"{s.kind!r}, asked for {kind!r}")
        return s

    def record(self, name: str, kind: str, time: float, value: float) -> None:
        self.series(name, kind).append(time, value)

    def get(self, name: str) -> Optional[Series]:
        return self._series.get(name)

    def names(self) -> List[str]:
        return sorted(self._series)

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterable[Series]:
        return iter(self._series[name] for name in sorted(self._series))
