"""repro.telemetry — the live metrics plane.

Where :mod:`repro.obs` answers questions *after* a run (span traces,
phase breakdowns), this package watches a run *while it executes*:

* :class:`Series` / :class:`SeriesBank` — ring-buffered time series,
* :class:`Sampler` — periodic snapshots of counters/metrics on the
  simulator event loop (one re-arming heap entry, zero model perturbation),
* :class:`Objective` / :class:`SloMonitor` — declarative service-level
  objectives with multi-window burn-rate verdicts,
* :class:`TelemetryPlane` — the facade wiring all of it onto one
  simulator, including the flight recorder: a ring-bounded
  :class:`~repro.obs.SpanTracer` of recent spans/instants, dumped
  automatically on retry exhaustion or SLO breaches,
* exporters — JSON time series, Prometheus text, flight-record files.

Like the tracing layer, everything here is opt-in: a run that never
constructs a plane keeps :data:`~repro.sim.trace.NULL_TRACER` and is
bit-identical to one where this package was never imported.
"""

from .sampler import Sampler
from .series import Point, Series, SeriesBank
from .slo import Objective, SloMonitor, render_verdicts
from .plane import (
    DEFAULT_TRIGGERS,
    FORCE_BREACH,
    TelemetryPlane,
    add_plane_args,
    plane_from_args,
)
from .export import (
    prometheus_text,
    render_series_table,
    timeseries_doc,
    write_artifacts,
    write_prometheus,
    write_timeseries,
)

__all__ = [
    "DEFAULT_TRIGGERS",
    "FORCE_BREACH",
    "Objective",
    "Point",
    "Sampler",
    "Series",
    "SeriesBank",
    "SloMonitor",
    "TelemetryPlane",
    "add_plane_args",
    "plane_from_args",
    "prometheus_text",
    "render_series_table",
    "render_verdicts",
    "timeseries_doc",
    "write_artifacts",
    "write_prometheus",
    "write_timeseries",
]
