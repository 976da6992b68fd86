"""Observability: hierarchical spans, metrics, and trace exporters.

The instrumentation substrate for every performance claim this repository
makes.  Install a :class:`SpanTracer` on a simulator and a run yields a
complete timeline — WR generation, doorbell, DMA, wire, polling — that can
be exported as Chrome trace-event JSON (:func:`write_chrome_trace`), a text
timeline (:func:`render_timeline`), or a per-phase breakdown table
(:func:`phase_breakdown`) that reconciles against the benchmark drivers'
own ``LatencyPoint`` timings (:func:`reconcile_with_point`).

See ``python -m repro trace --help`` for the CLI.
"""

from ..sim.trace import (
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    get_default_tracer,
    set_default_tracer,
)
from .export import (
    PhaseStat,
    chrome_trace_events,
    phase_breakdown,
    reconcile_with_point,
    render_breakdown,
    render_timeline,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .query import (
    clip,
    coverage,
    merge,
    overlap,
    span_intervals,
    subtract,
)
from .tracer import FlowRecord, InstantRecord, Span, SpanRecord, SpanTracer

__all__ = [
    "Counter",
    "FlowRecord",
    "Histogram",
    "InstantRecord",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "PhaseStat",
    "Span",
    "SpanRecord",
    "SpanTracer",
    "chrome_trace_events",
    "clip",
    "coverage",
    "get_default_tracer",
    "merge",
    "overlap",
    "phase_breakdown",
    "reconcile_with_point",
    "render_breakdown",
    "render_timeline",
    "set_default_tracer",
    "span_intervals",
    "subtract",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_trace",
]
