"""Tracing protocol: the null tracer, span and metrics objects, the
default-tracer hook, and the base of the sampler's stats objects.

The one recording tracer is :class:`repro.obs.SpanTracer` (hierarchical
spans, instants, causal flow events, a metrics registry, and an optional
ring bound).  Every :class:`~repro.sim.engine.Simulator` carries a
``tracer`` attribute (default :data:`NULL_TRACER`), so models reach it as
``self.sim.tracer``.  Tracing is off by default; the hot paths pay one
attribute check (``tracer.enabled``) plus, at most, a no-op method call on
the null objects.

This module deliberately knows nothing about :mod:`repro.obs` — the
dependency points the other way — but it hosts the *null* implementations
of the tracer, span and metrics interfaces so the default path needs no
imports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator


# -- null span / metrics --------------------------------------------------------

class NullSpan:
    """The span every disabled (or filtered-out) ``begin`` returns: all
    operations are no-ops, so instrumented code never branches on whether
    tracing is live."""

    __slots__ = ()

    def end(self, **attrs) -> None:
        pass

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = NullSpan()


class _NullMetric:
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def record(self, time: float, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry:
    """Metrics registry that swallows everything."""

    __slots__ = ()

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def timeline(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def snapshot(self) -> dict:
        return {}


NULL_METRICS = NullMetricsRegistry()


# -- the sampler's stats protocol -----------------------------------------------

class SampledStats:
    """Base of every stats object the telemetry sampler polls.

    A subclass defines ``snapshot()`` (a flat ``{name: number}``) and
    names its level-valued keys in ``GAUGES``; every other key is a
    monotonic counter."""

    GAUGES: Tuple[str, ...] = ()

    def snapshot(self) -> Dict[str, float]:  # pragma: no cover - abstract
        raise NotImplementedError

    def diff(self, earlier: Dict[str, float]) -> Dict[str, float]:
        """Change since an ``earlier`` :meth:`snapshot`: counters as
        deltas, ``GAUGES`` as their current level.  A key ``earlier``
        lacks diffs against zero."""
        gauges = self.GAUGES
        return {name: value if name in gauges
                else value - earlier.get(name, 0)
                for name, value in self.snapshot().items()}


# -- null tracer ----------------------------------------------------------------

class NullTracer:
    """A tracer that drops everything (the default).  Shares the recording
    tracer's protocol — ``begin``, ``instant``, ``flow_event``, ``wants``,
    ``metrics`` — as no-ops."""

    enabled = False
    metrics = NULL_METRICS

    def bind(self, sim: "Simulator") -> None:
        pass

    def now(self) -> float:
        return 0.0

    def wants(self, category: str) -> bool:
        return False

    def begin(self, category: str, name: str, track: str = "main",
              **attrs) -> NullSpan:
        return NULL_SPAN

    def instant(self, category: str, name: str, track: str = "main",
                **attrs) -> None:
        pass

    def flow_event(self, kind: str, actor: str, addr=None, **attrs) -> None:
        pass


NULL_TRACER = NullTracer()


# -- default tracer --------------------------------------------------------------
# New simulators pick this up at construction, which lets entry points (e.g.
# ``python -m repro --trace``) trace code paths that build clusters
# internally without threading a tracer through every call.

_default_tracer = NULL_TRACER


def set_default_tracer(tracer) -> None:
    """Install ``tracer`` as the default for newly created simulators
    (``None`` restores the null tracer)."""
    global _default_tracer
    _default_tracer = tracer if tracer is not None else NULL_TRACER


def get_default_tracer():
    return _default_tracer
