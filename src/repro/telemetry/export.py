"""Telemetry exporters: JSON time-series, Prometheus text, flight dumps.

Three output shapes, one per consumer:

* :func:`timeseries_doc` / :func:`write_timeseries` — the full sampled
  history as JSON (plotting, campaign aggregation),
* :func:`prometheus_text` — the de-facto scrape format, so any Prometheus/
  Grafana tooling ingests a run's final state without adapters; the
  power-of-two histogram buckets map directly onto cumulative ``le``
  buckets,
* :func:`write_artifacts` — a monitoring run's flight-recorder dumps and
  SLO report to disk, creating the directory (artifact paths rarely exist
  on fresh checkouts/CI workspaces).
"""

from __future__ import annotations

import json
import os
import re
from typing import Iterable

from .sampler import Sampler

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a metric name for the Prometheus exposition format."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _prom_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash, double
    quote, and newline.  Entity ids like ``rel.3->0.tx`` carry ``->`` and
    arbitrary punctuation — legal in label VALUES, but only once escaped."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _family(series_name: str):
    """Split ``prefix.<entity>.<metric>`` into a metric family + label.

    Dotted series with an entity segment in the middle (``link.0-1.bytes``,
    ``rel.3->0.tx``) collapse into ONE family (``repro_link_bytes``) whose
    samples differ by an ``id`` label — the exposition format forbids
    repeating ``# HELP``/``# TYPE`` per entity, and entity names are not
    legal in metric names anyway.  Two-segment names stay label-free.
    """
    parts = series_name.split(".")
    if len(parts) >= 3:
        return _prom_name(f"{parts[0]}_{parts[-1]}"), ".".join(parts[1:-1])
    return _prom_name(series_name), None


def _write_json(path: str, doc: dict) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


# -- JSON time series -------------------------------------------------------------

def timeseries_doc(sampler: Sampler) -> dict:
    """Every series' points (plus tick metadata), JSON-safe."""
    return {
        "interval": sampler.interval,
        "ticks": sampler.ticks,
        "tick_times": list(sampler.tick_times),
        "series": {
            s.name: {"kind": s.kind,
                     "points": [[p.time, p.value] for p in s]}
            for s in sampler.bank
        },
    }


def write_timeseries(path: str, sampler: Sampler) -> dict:
    doc = timeseries_doc(sampler)
    _write_json(path, doc)
    return doc


# -- Prometheus text format ---------------------------------------------------------

def prometheus_text(sampler: Sampler, registry=None) -> str:
    """The run's final state in the Prometheus exposition format.

    Counter series expose their lifetime totals, gauges their last level.
    Series sharing a family (per-link byte counters, per-channel
    reliability stats) are grouped under ONE ``# HELP``/``# TYPE`` header
    and distinguished by an escaped ``id`` label.  With a
    :class:`~repro.obs.metrics.MetricsRegistry`, its histograms are
    rendered as cumulative ``le`` buckets (each power-of-two bucket's upper
    bound ``2**e`` becomes a ``le`` label) plus ``_sum``/``_count``.
    """
    # (family name, kind) -> [(label, series)]; one header per family even
    # when many entities share it.  The kind rides in the key so a (never
    # expected) counter/gauge clash degrades to two families instead of an
    # exposition-format violation.
    families: dict = {}
    for series in sampler.bank:
        name, label = _family(series.name)
        families.setdefault((name, series.kind), []).append((label, series))
    lines = []
    for name, kind in sorted(families):
        samples = families[(name, kind)]
        lines.append(f"# HELP {name} repro telemetry series "
                     f"({len(samples)} sample(s))")
        lines.append(f"# TYPE {name} {kind}")
        for label, series in samples:
            tag = (f'{{id="{_prom_label_value(label)}"}}'
                   if label is not None else "")
            if kind == "counter":
                lines.append(f"{name}_total{tag} {series.total():g}")
            else:
                last = series.last
                lines.append(f"{name}{tag} {last.value if last else 0:g}")
    if registry is not None:
        seen = set()
        for hname, hist in sorted(registry.histograms().items()):
            name, label = _family(hname)
            tag = (f'id="{_prom_label_value(label)}"'
                   if label is not None else "")
            if name not in seen:
                seen.add(name)
                lines.append(f"# HELP {name} repro telemetry histogram")
                lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for e in sorted(hist.buckets):
                cumulative += hist.buckets[e]
                sep = "," if tag else ""
                lines.append(f'{name}_bucket{{{tag}{sep}le="{2.0 ** e:g}"}} '
                             f"{cumulative}")
            sep = "," if tag else ""
            lines.append(f'{name}_bucket{{{tag}{sep}le="+Inf"}} '
                         f"{hist.count}")
            braces = f"{{{tag}}}" if tag else ""
            lines.append(f"{name}_sum{braces} {hist.total:g}")
            lines.append(f"{name}_count{braces} {hist.count}")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, sampler: Sampler, registry=None) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(sampler, registry))


# -- flight-recorder dumps + SLO report ---------------------------------------------

def write_artifacts(out: str, dumps: Iterable[dict], report: str) -> int:
    """Write every flight-recorder dump as ``flight-record-<i>.json`` and
    ``report`` (an already serialized JSON document) as
    ``slo-report.json`` under ``out``, creating it.  Returns the number of
    dumps written."""
    os.makedirs(out, exist_ok=True)
    count = 0
    for dump in dumps:
        _write_json(os.path.join(out, f"flight-record-{count}.json"), dump)
        count += 1
    with open(os.path.join(out, "slo-report.json"), "w",
              encoding="utf-8") as fh:
        fh.write(report)
    return count


# -- per-window summary table ---------------------------------------------------------

def render_series_table(sampler: Sampler) -> str:
    """Fixed-width per-series summary: totals for counters (plus the mean
    rate over the sampled range), last level for gauges."""
    rows = []
    span = None
    if len(sampler.tick_times) >= 2:
        span = sampler.tick_times[-1] - sampler.tick_times[0]
    for series in sampler.bank:
        if series.kind == "counter":
            total = series.total()
            rate = ""
            if span and len(series) >= 2:
                # Rate over the retained windows (skip the first point:
                # its delta covers time before the retained range).
                pts = series.points()[1:]
                rate = f"{sum(p.value for p in pts) / span:,.0f}/s"
            rows.append((series.name, f"{total:,.0f}", rate))
        else:
            last = series.last
            rows.append((series.name, "-" if last is None
                         else f"{last.value:g}", "gauge"))
    if not rows:
        return "(no series sampled)"
    width = max(len(name) for name, _, _ in rows) + 2
    lines = ["series".ljust(width) + "total/last".rjust(16) + "rate".rjust(16)]
    lines.append("-" * (width + 32))
    for name, value, rate in rows:
        lines.append(name.ljust(width) + value.rjust(16) + rate.rjust(16))
    return "\n".join(lines)
