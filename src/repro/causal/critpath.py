"""Exact critical-path extraction + blame attribution + straggler view.

The walk starts at a request's ``req.end`` and repeatedly takes the
critical predecessor until it reaches ``req.begin``.  Because every
segment spans exactly ``[pred.time, ev.time]`` and consecutive segments
share their boundary event, the path **telescopes**: its duration is
``req.end.time - req.begin.time`` analytically, and both endpoints are
stamped at the very ``sim.now`` instants the workload generator records
``dispatch`` and ``completion`` at — so against the measured service
time the headline reconciliation error is exactly ``0.0``, not "small".
The per-category partition is checked separately (``math.fsum`` of the
segment durations vs the total): individual boundary subtractions round,
so the residual is bounded at 1e-9 rather than zero.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import CausalError
from ..obs.tracer import FlowRecord
from .dag import CausalDag
from .events import CATEGORY_ORDER, categorize, edge_kind

#: fsum-vs-total partition tolerance (seconds): float boundary
#: subtraction is inexact; the telescoped headline total is not.
PARTITION_TOLERANCE = 1e-9

_RANK_ACTOR = re.compile(r"^n(\d+)$")


@dataclass(frozen=True)
class Segment:
    """One critical-path hop: the interval that *produced* ``ev``."""

    pred: FlowRecord
    ev: FlowRecord
    category: str
    edge: str
    #: For blocked-on-remote joins: how long the consuming actor had
    #: already been waiting when the remote delivery landed (overlaps the
    #: remote side's phases; reported beside, not inside, the partition).
    wait: float = 0.0

    @property
    def begin(self) -> float:
        return self.pred.time

    @property
    def end(self) -> float:
        return self.ev.time

    @property
    def duration(self) -> float:
        return self.ev.time - self.pred.time


@dataclass
class CriticalPath:
    """One request's exact critical path."""

    req: int
    events: List[FlowRecord]          # forward: req.begin ... req.end
    segments: List[Segment]           # forward, len(events) - 1
    rank_slack: Dict[int, float]      # rank -> req.end - its rank.end
    rank_time: Dict[int, float]       # rank -> critical-path time it owns
    straggler: Optional[int]          # rank owning the most path time

    @property
    def begin(self) -> float:
        return self.events[0].time

    @property
    def end(self) -> float:
        return self.events[-1].time

    @property
    def total(self) -> float:
        """Telescoped path duration — exact by construction."""
        return self.end - self.begin

    def categories(self) -> Dict[str, float]:
        """Per-category partition of the path (fsum per bucket)."""
        buckets: Dict[str, List[float]] = {}
        for seg in self.segments:
            buckets.setdefault(seg.category, []).append(seg.duration)
        return {cat: math.fsum(vals) for cat, vals in buckets.items()}

    def remote_wait(self) -> float:
        """Total blocked-on-remote wait along the path (overlap view)."""
        return math.fsum(s.wait for s in self.segments
                         if s.edge == "blocked-on-remote")

    def partition_residual(self) -> float:
        return abs(math.fsum(s.duration for s in self.segments)
                   - self.total)

    def reconcile(self, measured: float) -> dict:
        """Gate the path against the harness's measured service time.

        ``error`` is the relative headline error and must be exactly 0.0:
        both endpoints were stamped at the same simulated instants the
        measurement used, and the path total telescopes to their
        difference.  ``residual`` is the fsum partition check.
        """
        error = (abs(self.total - measured) / measured if measured > 0
                 else abs(self.total - measured))
        residual = self.partition_residual()
        return {
            "req": self.req,
            "path": self.total,
            "measured": measured,
            "error": error,
            "residual": residual,
            "hops": len(self.segments),
            "ok": error == 0.0 and residual <= PARTITION_TOLERANCE,
        }


def extract_path(dag: CausalDag, req: int) -> CriticalPath:
    """Walk backward from ``req.end`` to ``req.begin``; raises
    :class:`~repro.errors.CausalError` on a dead end (an uninstrumented
    emission site) or a non-terminating walk."""
    begin, end = dag.bracket(req)
    chain: List[FlowRecord] = [end]
    ev = end
    limit = len(dag.flows) + 1
    while ev.seq != begin.seq:
        pred = dag.predecessor(ev)
        if pred is None:
            raise CausalError(
                f"request {req}: critical path dead-ends at {ev} — an "
                f"emission site is missing its causal predecessor")
        chain.append(pred)
        ev = pred
        if len(chain) > limit:
            raise CausalError(f"request {req}: walk exceeded "
                              f"{limit} hops (cycle?)")
    chain.reverse()
    segments: List[Segment] = []
    for pred, ev in zip(chain, chain[1:]):
        edge = edge_kind(pred, ev)
        wait = 0.0
        if edge == "blocked-on-remote":
            stalled_since = dag.actor_pred(ev)
            if stalled_since is not None:
                wait = max(0.0, pred.time - stalled_since.time)
        segments.append(Segment(pred, ev, categorize(pred, ev), edge,
                                wait))
    rank_slack: Dict[int, float] = {}
    latest_rank: Optional[int] = None
    latest = None
    for rend in dag.rank_ends(req):
        rank = int(rend.actor[1:])
        rank_slack[rank] = end.time - rend.time
        if latest is None or (rend.time, rend.seq) > latest:
            latest = (rend.time, rend.seq)
            latest_rank = rank
    # The straggler is the rank the request spent the most critical-path
    # time ON, not simply the last rank to finish: in a ring collective
    # the last ``rank.end`` is fixed by ring position, while a delayed
    # rank shows up as path time (its compute/staging segments ride the
    # path) no matter where it sits.
    rank_time: Dict[int, List[float]] = {}
    for seg in segments:
        m = _RANK_ACTOR.match(seg.ev.actor)
        if m:
            rank_time.setdefault(int(m.group(1)), []).append(seg.duration)
    owned = {rank: math.fsum(vals) for rank, vals in rank_time.items()}
    if owned:
        straggler = max(sorted(owned), key=lambda r: owned[r])
    else:
        straggler = latest_rank
    return CriticalPath(req=req, events=chain, segments=segments,
                        rank_slack=rank_slack, rank_time=owned,
                        straggler=straggler)


@dataclass
class RunAnalysis:
    """Every request's critical path for one (workload, mode) run."""

    paths: List[CriticalPath] = field(default_factory=list)

    @property
    def requests(self) -> List[int]:
        return [p.req for p in self.paths]

    def blame(self) -> Dict[str, float]:
        """Category totals across all requests, report-ordered."""
        buckets: Dict[str, List[float]] = {}
        for path in self.paths:
            for cat, val in path.categories().items():
                buckets.setdefault(cat, []).append(val)
        totals = {cat: math.fsum(vals) for cat, vals in buckets.items()}
        ordered = {cat: totals[cat] for cat in CATEGORY_ORDER
                   if cat in totals}
        for cat in sorted(totals):
            ordered.setdefault(cat, totals[cat])
        return ordered

    def blame_shares(self) -> Dict[str, float]:
        total = math.fsum(p.total for p in self.paths)
        if total <= 0:
            return {}
        return {cat: val / total for cat, val in self.blame().items()}

    def slack_histograms(self) -> Dict[int, List[float]]:
        """rank -> its slack in every request (0.0 == was the straggler)."""
        out: Dict[int, List[float]] = {}
        for path in self.paths:
            for rank, slack in sorted(path.rank_slack.items()):
                out.setdefault(rank, []).append(slack)
        return out

    def stragglers(self) -> Dict[int, Optional[int]]:
        return {p.req: p.straggler for p in self.paths}

    def remote_wait(self) -> float:
        return math.fsum(p.remote_wait() for p in self.paths)

    def reconcile(self, service_times: Sequence[float]) -> dict:
        """Gate every request's path against its measured service time.
        ``service_times`` is indexed by request id (the generator runs one
        request at a time, so completion order == request order)."""
        per_req = []
        for path in self.paths:
            if path.req >= len(service_times):
                raise CausalError(
                    f"request {path.req} has no measured service time")
            per_req.append(path.reconcile(service_times[path.req]))
        return {
            "requests": per_req,
            "max_error": max((r["error"] for r in per_req), default=0.0),
            "max_residual": max((r["residual"] for r in per_req),
                                default=0.0),
            "ok": all(r["ok"] for r in per_req),
        }


def analyze_run(tracer) -> RunAnalysis:
    """Assemble the DAG from ``tracer.flows`` and extract every bracketed
    request's critical path."""
    dag = CausalDag(tracer.flows)
    wanted = dag.requests()
    if not wanted:
        raise CausalError("no req.begin/req.end brackets in the trace — "
                          "was the run built with a causal-enabled tracer?")
    return RunAnalysis(paths=[extract_path(dag, r) for r in wanted])


__all__ = ["PARTITION_TOLERANCE", "CriticalPath", "RunAnalysis", "Segment",
           "analyze_run", "extract_path"]
