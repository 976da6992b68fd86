"""Cheap counters and histograms for the observability layer.

A :class:`MetricsRegistry` hands out named :class:`Counter` and
:class:`Histogram` instances on first use.  Both are deliberately tiny —
``inc``/``observe`` are a handful of attribute updates — so instrumented
hot paths can update them per operation when tracing is on.  When tracing
is off, models hold the shared null registry from :mod:`repro.sim.trace`
and every call is a no-op.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing count (TLPs sent, WRs posted, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Summary statistics of an observed value (latencies, sizes, polls).

    Tracks count/sum/min/max plus power-of-two buckets, which is enough to
    render a distribution without keeping every sample.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        # buckets[e] counts samples with 2**(e-1) < value <= 2**e; e may be
        # negative (sub-second latencies land well below 2**0).
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0:
            mantissa, exp = math.frexp(value)   # value = mantissa * 2**exp
            if mantissa == 0.5:                 # exact power of two: lower bucket
                exp -= 1
        else:
            exp = 0
        self.buckets[exp] = self.buckets.get(exp, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile (0..100) from the power-of-two
        buckets.

        THE percentile implementation — every consumer (metric summaries,
        the bench harness, the telemetry SLO monitors) goes through this
        method, including over *windowed* sample sets via :meth:`delta`.

        The rank is located by walking the cumulative bucket counts; within
        the bucket it lands in, the value is interpolated linearly across the
        bucket's ``(2**(e-1), 2**e]`` range and clamped to the observed
        ``[min, max]``.  The estimate is therefore never off by more than one
        octave.  Edge cases are exact: an empty histogram returns ``None``,
        a single sample returns that sample for every ``q``, ``q=0`` returns
        the minimum and ``q=100`` the maximum.
        """
        if not self.count:
            return None
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile wants q in [0, 100], got {q!r}")
        if q == 0.0 or self.count == 1:
            return self.min
        if q == 100.0:
            return self.max
        target = q / 100.0 * self.count
        cumulative = 0
        for e in sorted(self.buckets):
            n = self.buckets[e]
            if not n:
                continue  # delta histograms may carry zero-count buckets
            cumulative += n
            if cumulative >= target:
                lo, hi = 2.0 ** (e - 1), 2.0 ** e
                frac = (target - (cumulative - n)) / n
                est = lo + (hi - lo) * frac
                return min(max(est, self.min), self.max)
        return self.max  # pragma: no cover - cumulative == count above

    # -- windowed views ----------------------------------------------------------
    def state(self) -> dict:
        """A cheap structural snapshot (count/sum/min/max plus a copy of the
        buckets).  Two states bound a *window*: feed them to :meth:`delta`
        to get a histogram of only the samples observed in between — how the
        telemetry sampler turns one live histogram into per-window tail
        latencies without retaining samples."""
        return {"count": self.count, "sum": self.total, "min": self.min,
                "max": self.max, "buckets": dict(self.buckets)}

    @classmethod
    def delta(cls, name: str, current: dict, earlier: Optional[dict] = None,
              ) -> "Histogram":
        """The histogram of samples observed between two :meth:`state`
        snapshots (``earlier`` omitted: since creation).

        min/max of the in-between samples are not tracked exactly (the live
        histogram only keeps all-time extremes), so they are estimated from
        the occupied delta buckets' bounds, clamped to the live extremes —
        consistent with the one-octave accuracy of :meth:`percentile`.
        """
        earlier = earlier or {"count": 0, "sum": 0.0, "buckets": {}}
        out = cls(name)
        prev_buckets = earlier.get("buckets") or {}
        for e, n in current.get("buckets", {}).items():
            d = n - prev_buckets.get(e, 0)
            if d > 0:
                out.buckets[e] = d
        out.count = current["count"] - earlier.get("count", 0)
        out.total = current["sum"] - earlier.get("sum", 0.0)
        if out.count < 0 or any(n < 0 for n in out.buckets.values()):
            raise ValueError(
                f"histogram {name!r}: 'earlier' state is not a prefix of "
                f"'current' (was the histogram cleared in between?)")
        if out.buckets:
            exps = sorted(out.buckets)
            lo = 2.0 ** (exps[0] - 1)
            hi = 2.0 ** exps[-1]
            out.min = max(lo, current.get("min", lo))
            out.max = min(hi, current.get("max", hi))
            if out.min > out.max:  # single-octave window: bounds collapse
                out.min = out.max
        return out

    def summary(self) -> dict:
        """JSON-safe summary: an empty histogram reports ``None`` for
        min/max/mean/percentiles instead of leaking ``inf``/``-inf``."""
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "mean": None, "p50": None, "p90": None, "p99": None}
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "mean": self.mean,
                "p50": self.percentile(50), "p90": self.percentile(90),
                "p99": self.percentile(99)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return f"<Histogram {self.name} n=0>"
        return (f"<Histogram {self.name} n={self.count} mean={self.mean:g} "
                f"min={self.min:g} max={self.max:g}>")


class Timeline:
    """A stepwise state variable sampled at transition times (link up/down,
    queue depth, ...).  Stores ``(time, value)`` points; the value holds
    until the next point, which is what the timeline exporter needs to draw
    fault windows."""

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        self.points.append((time, value))

    @property
    def transitions(self) -> int:
        return len(self.points)

    def windows(self, value: float) -> List[Tuple[float, Optional[float]]]:
        """The ``(start, end)`` intervals during which the state equaled
        ``value``; an open interval ends with ``None``."""
        out: List[Tuple[float, Optional[float]]] = []
        start: Optional[float] = None
        for t, v in self.points:
            if v == value and start is None:
                start = t
            elif v != value and start is not None:
                out.append((start, t))
                start = None
        if start is not None:
            out.append((start, None))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeline {self.name} points={len(self.points)}>"


class MetricsRegistry:
    """Named counters, histograms, and timelines, created on first access."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timelines: Dict[str, Timeline] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def timeline(self, name: str) -> Timeline:
        t = self._timelines.get(name)
        if t is None:
            t = self._timelines[name] = Timeline(name)
        return t

    def counter_values(self) -> Dict[str, int]:
        """Flat ``{name: value}`` view of the counters only — the shape the
        telemetry sampler polls per tick (histogram/timeline summaries are
        too heavy to rebuild at sampling cadence)."""
        return {name: c.value for name, c in self._counters.items()}

    def histograms(self) -> Dict[str, Histogram]:
        """The live histogram objects by name (read-only use expected)."""
        return dict(self._histograms)

    def snapshot(self) -> dict:
        """A plain-dict view (counters as ints, histograms as summaries with
        estimated percentiles, timelines as their transition points).  The
        result is JSON-safe: empty histograms report ``None``, never
        ``inf``/``-inf``."""
        out: dict = {}
        for name, c in sorted(self._counters.items()):
            out[name] = c.value
        for name, h in sorted(self._histograms.items()):
            out[name] = h.summary()
        for name, t in sorted(self._timelines.items()):
            out[name] = {"points": [[time, value] for time, value in t.points]}
        return out

    def diff(self, earlier: dict) -> dict:
        """What changed since ``earlier`` (a prior :meth:`snapshot`).

        Returns the same flat shape as :meth:`snapshot` but with *deltas*:
        counters as ``current - earlier``, histograms as the count/sum/mean
        of the samples observed in between, timelines as the points appended
        since.  This is how the bench harness computes per-run counter
        deltas on registries shared across sequential simulations, without
        resetting them mid-flight.  Metrics created after ``earlier`` diff
        against zero.
        """
        out: dict = {}
        for name, c in sorted(self._counters.items()):
            before = earlier.get(name, 0)
            out[name] = c.value - (before if isinstance(before, int) else 0)
        for name, h in sorted(self._histograms.items()):
            before = earlier.get(name)
            before = before if isinstance(before, dict) else {}
            d_count = h.count - (before.get("count") or 0)
            d_sum = h.total - (before.get("sum") or 0.0)
            out[name] = {"count": d_count, "sum": d_sum,
                         "mean": d_sum / d_count if d_count else None}
        for name, t in sorted(self._timelines.items()):
            before = earlier.get(name)
            before = before if isinstance(before, dict) else {}
            seen = len(before.get("points") or [])
            out[name] = {"points": [[time, value]
                                    for time, value in t.points[seen:]]}
        return out

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()
        self._timelines.clear()

    def render(self) -> str:
        """Text table of every metric, alphabetical."""
        rows: List[Tuple[str, str]] = []
        for name, c in sorted(self._counters.items()):
            rows.append((name, f"{c.value:,}"))
        for name, h in sorted(self._histograms.items()):
            if h.count:
                rows.append((name, f"n={h.count:,} mean={h.mean:.4g} "
                                   f"min={h.min:.4g} max={h.max:.4g} "
                                   f"p99={h.percentile(99):.4g}"))
            else:
                rows.append((name, "n=0"))
        for name, t in sorted(self._timelines.items()):
            last = f" last={t.points[-1][1]:g}" if t.points else ""
            rows.append((name, f"transitions={t.transitions:,}{last}"))
        if not rows:
            return "(no metrics recorded)"
        width = max(len(name) for name, _ in rows) + 2
        return "\n".join(name.ljust(width) + value for name, value in rows)
