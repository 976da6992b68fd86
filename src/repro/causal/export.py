"""Critical-path exporters: waterfall text report + annotated Chrome trace.

The waterfall renders one path forward in time, one segment per line, with
blame category and edge classification; the Chrome exporter rides
:func:`repro.obs.export.chrome_trace_events` (which already carries the
per-message flow arrows) and overlays one ``s``/``f`` arrow pair per
critical-path hop under the ``critpath`` category, so Perfetto draws the
exact dependency chain the blame table summed.  The file is written (and
validated) by :func:`repro.obs.export.write_trace`.
"""

from __future__ import annotations

from typing import IO, Dict, List, Union

from ..obs.export import chrome_trace_events, track_tids, write_trace
from ..obs.tracer import SpanTracer
from .critpath import CriticalPath, RunAnalysis
from .events import CATEGORY_ORDER

_US = 1e6

_EDGE_MARK = {"local": "", "flow": "  ~>",
              "blocked-on-remote": "  <=remote",
              "blocked-on-credit": "  <=credit"}


def render_waterfall(path: CriticalPath, title: str = "") -> str:
    """One request's critical path, forward in time."""
    head = title or f"critical path: request {path.req}"
    lines = [head, "=" * len(head),
             f"{len(path.segments)} hops, total "
             f"{path.total * _US:.3f}us"]
    for seg in path.segments:
        offset = (seg.begin - path.begin) * _US
        hop = f"{seg.pred.kind} -> {seg.ev.kind}"
        addr = f" @{seg.ev.addr}" if seg.ev.addr is not None else ""
        wait = (f" (waited {seg.wait * _US:.3f}us)"
                if seg.wait > 0 else "")
        lines.append(
            f"  t+{offset:10.3f}us  +{seg.duration * _US:9.3f}us  "
            f"{seg.ev.actor:<12} {hop:<22} "
            f"[{seg.category}]{_EDGE_MARK.get(seg.edge, '')}{wait}{addr}")
    lines.append("")
    lines.append(render_blame({c: v for c, v in path.categories().items()},
                              path.total))
    if path.rank_slack or path.rank_time:
        lines.append("")
        lines.append("per-rank view: slack at req.end / time owned on the "
                     "critical path")
        for rank in sorted(set(path.rank_slack) | set(path.rank_time)):
            mark = "  <-- straggler" if rank == path.straggler else ""
            slack = path.rank_slack.get(rank, 0.0)
            owned = path.rank_time.get(rank, 0.0)
            lines.append(f"  rank {rank}: {slack * _US:10.3f}us / "
                         f"{owned * _US:10.3f}us{mark}")
    return "\n".join(lines)


def render_blame(categories: Dict[str, float], total: float) -> str:
    title = "blame by category"
    lines = [title, "-" * len(title)]
    ordered = [c for c in CATEGORY_ORDER if c in categories]
    ordered += [c for c in sorted(categories) if c not in CATEGORY_ORDER]
    for cat in ordered:
        val = categories[cat]
        share = (val / total * 100.0) if total > 0 else 0.0
        lines.append(f"  {cat:<20} {val * _US:12.3f}us  {share:6.2f}%")
    lines.append(f"  {'total':<20} {total * _US:12.3f}us  100.00%")
    return "\n".join(lines)


def render_slack(analysis: RunAnalysis) -> str:
    """Per-rank slack histogram across every request of a run."""
    hists = analysis.slack_histograms()
    if not hists:
        return "(no per-rank brackets recorded)"
    lines = ["per-rank slack across requests (us): min / mean / max, "
             "straggler count"]
    stragglers = list(analysis.stragglers().values())
    for rank in sorted(hists):
        vals = hists[rank]
        crit = stragglers.count(rank)
        lines.append(f"  rank {rank}: {min(vals) * _US:10.3f} / "
                     f"{sum(vals) / len(vals) * _US:10.3f} / "
                     f"{max(vals) * _US:10.3f}   straggler in "
                     f"{crit}/{len(analysis.paths)} requests")
    return "\n".join(lines)


def annotated_trace_events(tracer: SpanTracer,
                           analysis: RunAnalysis) -> List[dict]:
    """The run's Chrome trace plus one flow arrow per critical-path hop."""
    events = chrome_trace_events(tracer)
    tids = track_tids(tracer)
    arrows: List[dict] = []
    flow_id = 1 << 20          # clear of the per-message arrow ids
    for path in analysis.paths:
        for seg in path.segments:
            if seg.pred.actor == seg.ev.actor:
                continue       # same-row hops render as adjacency already
            name = f"critpath.req{path.req}"
            arrows.append({"ph": "s", "name": name, "cat": "critpath",
                           "id": flow_id, "ts": seg.begin * _US,
                           "pid": 0, "tid": tids[seg.pred.actor],
                           "args": {"kind": seg.pred.kind,
                                    "category": seg.category}})
            arrows.append({"ph": "f", "bp": "e", "name": name,
                           "cat": "critpath", "id": flow_id,
                           "ts": seg.end * _US, "pid": 0,
                           "tid": tids[seg.ev.actor],
                           "args": {"kind": seg.ev.kind,
                                    "edge": seg.edge}})
            flow_id += 1
    merged = events + arrows
    # Stable sort by timestamp: equal-ts base events keep their carefully
    # chosen B/E order, arrows slot in after them.
    merged.sort(key=lambda ev: ev.get("ts", float("-inf")))
    return merged


def write_annotated_trace(tracer: SpanTracer, analysis: RunAnalysis,
                          out: Union[str, IO[str]]) -> dict:
    return write_trace(annotated_trace_events(tracer, analysis),
                       {"generator": "repro.causal",
                        "requests": analysis.requests,
                        "blame": {c: v for c, v in analysis.blame().items()}},
                       out)


__all__ = ["annotated_trace_events", "render_blame", "render_slack",
           "render_waterfall", "write_annotated_trace"]
