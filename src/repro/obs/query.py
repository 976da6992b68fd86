"""Span query helpers: interval algebra over a :class:`SpanTracer`.

The cost-attribution profiler (:mod:`repro.perf.profiler`) needs to answer
questions like "how much of the polling window was covered by wire
activity?".  Those are interval-set operations on span ``(begin, end)``
pairs, collected here so analyses and tests share one implementation:

* :func:`span_intervals` — select spans and return their intervals,
* :func:`merge` — union overlapping intervals into a disjoint sorted list,
* :func:`clip` — restrict intervals to one window,
* :func:`subtract` — remove covered time from a set of windows,
* :func:`coverage` — total seconds in a disjoint interval list.

All functions treat intervals as half-open ``[begin, end)`` pairs of
simulated seconds; zero-length intervals contribute nothing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .tracer import SpanTracer

Interval = Tuple[float, float]


def span_intervals(tracer: SpanTracer,
                   category: Optional[str] = None,
                   name: Optional[str] = None,
                   track: Optional[str] = None) -> List[Interval]:
    """The ``(begin, end)`` pairs of every span matching the filters.

    ``category``/``name``/``track`` match exactly when given.  The result
    is sorted by begin time but NOT merged — feed it to :func:`merge`
    before set arithmetic.
    """
    out = []
    for s in tracer.spans:
        if category is not None and s.category != category:
            continue
        if name is not None and s.name != name:
            continue
        if track is not None and s.track != track:
            continue
        out.append((s.begin, s.end))
    out.sort()
    return out


def merge(intervals: Sequence[Interval]) -> List[Interval]:
    """Union: overlapping or touching intervals collapse into one; the
    result is sorted and disjoint."""
    out: List[Interval] = []
    for begin, end in sorted(intervals):
        if end <= begin:
            continue
        if out and begin <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((begin, end))
    return out


def clip(intervals: Sequence[Interval], window: Interval) -> List[Interval]:
    """The parts of ``intervals`` that fall inside ``window``."""
    w_begin, w_end = window
    out = []
    for begin, end in intervals:
        begin, end = max(begin, w_begin), min(end, w_end)
        if end > begin:
            out.append((begin, end))
    return out


def subtract(windows: Sequence[Interval],
             cover: Sequence[Interval]) -> List[Interval]:
    """``windows`` minus ``cover``: the time in ``windows`` not covered.

    Both arguments must be sorted and disjoint (i.e. outputs of
    :func:`merge`); the result is too.
    """
    out: List[Interval] = []
    for begin, end in windows:
        cursor = begin
        for c_begin, c_end in cover:
            if c_end <= cursor:
                continue
            if c_begin >= end:
                break
            if c_begin > cursor:
                out.append((cursor, c_begin))
            cursor = max(cursor, c_end)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out


def coverage(intervals: Sequence[Interval]) -> float:
    """Total seconds in a disjoint interval list."""
    return sum(end - begin for begin, end in intervals)


def overlap(intervals: Sequence[Interval], windows: Sequence[Interval],
            ) -> List[Interval]:
    """Merged intersection of ``intervals`` with a set of windows."""
    out: List[Interval] = []
    for window in windows:
        out.extend(clip(intervals, window))
    return merge(out)
