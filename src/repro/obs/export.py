"""Exporters: Chrome trace-event JSON, text timeline, phase breakdown.

* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the Chrome
  trace-event format (``chrome://tracing`` / Perfetto): ``B``/``E`` pairs
  per span, ``i`` instants, thread-name metadata per track.
* :func:`write_trace` — the one writer every Chrome-trace file goes
  through: it validates the events before it writes anything.
* :func:`render_timeline` — a plain-text timeline (spans indented by depth).
* :func:`phase_breakdown` / :func:`render_breakdown` — per-phase duration
  sums, the table that reconciles against
  :class:`~repro.core.results.LatencyPoint` (Fig. 3's quantity).
* :func:`validate_chrome_trace` — structural check (pairing, nesting,
  monotonic timestamps) run by :func:`write_trace` and by tests.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Union

from ..analysis.invariants import reconciles, relative_error
from .tracer import SpanTracer

_US = 1e6  # trace-event timestamps are microseconds


def _ts(seconds: float) -> float:
    return seconds * _US


def _natural(track: str) -> tuple:
    """Sort key that orders embedded numbers numerically, so per-rank
    tracks come out ``n0, n1, ..., n9, n10`` in Perfetto instead of the
    lexical ``n0, n1, n10, n2``."""
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", track))


def track_tids(tracer: SpanTracer) -> Dict[str, int]:
    """track -> tid, numbered in natural order (Perfetto sorts rows by
    tid).  Includes flow-event actors so arrows land on named rows."""
    tracks = set(tracer.tracks()) | {f.actor for f in tracer.flows}
    return {track: i + 1
            for i, track in enumerate(sorted(tracks, key=_natural))}


def chrome_trace_events(tracer: SpanTracer) -> List[dict]:
    """Flatten a tracer into a sorted trace-event list.

    Events on one ``tid`` are strictly nested: at equal timestamps, ``E``
    events close inner spans before outer ones and ``B`` events open outer
    spans before inner ones, so loaders never see a crossing.

    Causal flow events are emitted as Chrome flow arrows: per message
    address wave, ``s`` at the first hop, ``t`` steps in between, ``f`` at
    the last — one arrow id per (addr, wave).
    """
    tids = track_tids(tracer)
    events: List[dict] = []
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({"ph": "M", "name": "thread_name", "pid": 0,
                       "tid": tid, "args": {"name": track}})
    timed: List[tuple] = []
    for span in tracer.spans:
        tid = tids[span.track]
        args = {"category": span.category, **span.attrs}
        # Sort key: (ts, E-before-B, outer-B-first / inner-E-first, seq).
        # Zero-duration spans keep their E *immediately after* their own B
        # (same rank/depth, higher seq) instead of the usual E-first rank,
        # which would orphan the pair.
        b_key = (_ts(span.begin), 1, span.depth, span.span_id, 0)
        if span.end > span.begin:
            e_key = (_ts(span.end), 0, -span.depth, span.span_id, 0)
        else:
            e_key = (_ts(span.begin), 1, span.depth, span.span_id, 1)
        timed.append((b_key,
                      {"ph": "B", "name": span.name, "cat": span.category,
                       "ts": _ts(span.begin), "pid": 0, "tid": tid,
                       "args": args}))
        timed.append((e_key,
                      {"ph": "E", "name": span.name, "cat": span.category,
                       "ts": _ts(span.end), "pid": 0, "tid": tid}))
    for inst in tracer.instants:
        timed.append(((_ts(inst.time), 2, 0, 0, 0),
                      {"ph": "i", "name": inst.name, "cat": inst.category,
                       "ts": _ts(inst.time), "pid": 0, "tid": tids[inst.track],
                       "s": "t", "args": dict(inst.attrs)}))
    # Flow arrows: group the causal events of one message (same address,
    # same reuse wave) under one flow id, start-to-finish in hop order.
    waves: Dict[tuple, List] = {}
    wave_count: Dict[tuple, int] = {}
    for flow in tracer.flows:
        if flow.addr is None:
            continue
        key = (flow.addr, flow.kind)
        wave = wave_count.get(key, 0)
        wave_count[key] = wave + 1
        waves.setdefault((flow.addr, wave), []).append(flow)
    for flow_id, (key, hops) in enumerate(sorted(waves.items(),
                                                 key=lambda kv: kv[1][0].seq)):
        if len(hops) < 2:
            continue
        for pos, flow in enumerate(hops):
            ph = "s" if pos == 0 else ("f" if pos == len(hops) - 1 else "t")
            ev = {"ph": ph, "name": f"~{flow.kind}", "cat": "causal",
                  "id": flow_id, "ts": _ts(flow.time), "pid": 0,
                  "tid": tids[flow.actor],
                  "args": {"kind": flow.kind, **flow.attrs}}
            if ph == "f":
                ev["bp"] = "e"  # bind to the enclosing slice, arrow at ts
            timed.append(((_ts(flow.time), 2, 0, 0, flow.seq), ev))
    timed.sort(key=lambda kv: kv[0])
    events.extend(ev for _key, ev in timed)
    return events


def write_trace(events: List[dict], other: dict,
                out: Union[str, IO[str]]) -> dict:
    """Validate ``events`` (:func:`validate_chrome_trace` raises before
    anything is written), then serialize them with ``other`` as the
    ``otherData`` block to a ``chrome://tracing``-loadable JSON file (or
    stream).  Returns the document that was written."""
    validate_chrome_trace(events)
    doc = {"traceEvents": events, "displayTimeUnit": "ns",
           "otherData": other}
    if isinstance(out, str):
        # --trace/--out may point into a directory that doesn't exist yet
        # (e.g. artifacts/run1/trace.json on a fresh checkout).
        parent = os.path.dirname(out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    else:
        json.dump(doc, out, indent=1)
    return doc


def write_chrome_trace(tracer: SpanTracer, out: Union[str, IO[str]]) -> dict:
    """Write ``tracer``'s trace through :func:`write_trace`, with its
    metrics snapshot and ``dropped`` count in ``otherData``."""
    return write_trace(chrome_trace_events(tracer),
                       {"generator": "repro.obs",
                        "metrics": tracer.metrics.snapshot(),
                        "dropped": tracer.dropped}, out)


def validate_chrome_trace(events: List[dict]) -> None:
    """Raise ``ValueError`` unless every ``B`` has a matching ``E`` on the
    same tid with LIFO nesting and non-decreasing timestamps."""
    last_ts: Dict[int, float] = {}
    stacks: Dict[int, List[dict]] = {}
    for ev in events:
        ph = ev["ph"]
        if ph == "M":
            continue
        tid = ev["tid"]
        ts = ev["ts"]
        if ts < last_ts.get(tid, float("-inf")):
            raise ValueError(f"timestamps went backwards on tid {tid}: "
                             f"{ts} after {last_ts[tid]}")
        last_ts[tid] = ts
        if ph == "B":
            stacks.setdefault(tid, []).append(ev)
        elif ph == "E":
            stack = stacks.get(tid)
            if not stack:
                raise ValueError(f"E without B on tid {tid}: {ev}")
            opener = stack.pop()
            if opener["name"] != ev["name"]:
                raise ValueError(
                    f"mispaired span on tid {tid}: B={opener['name']!r} "
                    f"closed by E={ev['name']!r}")
        elif ph in ("s", "t", "f"):
            if "id" not in ev:
                raise ValueError(f"flow event without id on tid {tid}: {ev}")
        elif ph != "i":
            raise ValueError(f"unexpected event phase {ph!r}")
    leftovers = [ev["name"] for stack in stacks.values() for ev in stack]
    if leftovers:
        raise ValueError(f"unclosed spans: {leftovers}")


def render_timeline(tracer: SpanTracer,
                    limit: Optional[int] = None) -> str:
    """Plain-text timeline: spans and instants interleaved by begin time."""
    rows = sorted(list(tracer.spans) + list(tracer.instants),
                  key=lambda r: (getattr(r, "begin", None) or
                                 getattr(r, "time", 0.0)))
    if limit is not None:
        rows = rows[:limit]
    lines = [str(r) for r in rows]
    if not lines:
        return "(empty trace)"
    return "\n".join(lines)


@dataclass
class PhaseStat:
    """Aggregate of every span sharing one name within a category."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration < self.min:
            self.min = duration
        if duration > self.max:
            self.max = duration


def phase_breakdown(tracer: SpanTracer) -> Dict[str, PhaseStat]:
    """Sum span durations by name within the benchmark-driver ``phase``
    spans (WR generation, polling, ...)."""
    out: Dict[str, PhaseStat] = {}
    for span in tracer.spans:
        if span.category != "phase":
            continue
        stat = out.get(span.name)
        if stat is None:
            stat = out[span.name] = PhaseStat(span.name)
        stat.add(span.duration)
    return out


def render_breakdown(breakdown: Dict[str, PhaseStat]) -> str:
    title = "Per-phase latency breakdown"
    lines = [title, "=" * len(title)]
    lines.append("phase".ljust(24) + "count".rjust(8) + "total".rjust(14)
                 + "mean".rjust(12) + "min".rjust(12) + "max".rjust(12))
    for name in sorted(breakdown):
        s = breakdown[name]
        lines.append(name.ljust(24) + f"{s.count}".rjust(8)
                     + f"{s.total * _US:.3f}us".rjust(14)
                     + f"{s.mean * _US:.3f}us".rjust(12)
                     + f"{s.min * _US:.3f}us".rjust(12)
                     + f"{s.max * _US:.3f}us".rjust(12))
    if len(lines) == 3:
        lines.append("(no phase spans recorded)")
    return "\n".join(lines)


def reconcile_with_point(tracer: SpanTracer, point, iterations: int) -> dict:
    """Check the tentpole invariant: summed ``wr-generation`` / ``polling``
    phase-span durations must match ``LatencyPoint.post_time`` /
    ``poll_time`` (which are per-iteration averages) under the shared
    agreement rule (:func:`repro.analysis.invariants.reconciles`).

    Returns a dict with both sides and relative errors; ``ok`` is True when
    every phase present reconciles.
    """
    breakdown = phase_breakdown(tracer)
    result: dict = {"iterations": iterations, "phases": {}, "ok": True}
    for phase, expected_total in (("wr-generation", point.post_time * iterations),
                                  ("polling", point.poll_time * iterations)):
        stat = breakdown.get(phase)
        traced = stat.total if stat else 0.0
        ok = reconciles(phase, traced, expected_total).ok
        result["phases"][phase] = {
            "traced": traced, "expected": expected_total,
            "rel_err": relative_error(traced, expected_total), "ok": ok}
        result["ok"] = result["ok"] and ok
    return result
