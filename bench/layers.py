"""Host-time accounting for the benchmark: spans around every call the
benchmark makes into the simulator, and cProfile self time summed per
``repro`` package.

Spans are recorded from the benchmark's own code only (no span inside the
simulator), so they cost two clock reads per builder or driver call and
stay on in every repetition; the timed metrics are sums over them.  The
profiler runs only in the traced repetition.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import repro

#: The simulator's layers, one per ``repro`` sub-package, in stack order.
#: Host time outside them (other ``repro`` packages, the benchmark itself)
#: lands in ``other``.
LAYERS = ("sim", "gpu", "cpu", "memory", "pcie", "extoll", "ib", "network",
          "fabrics", "core", "engine", "triggered", "mpi", "collectives",
          "workloads")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


@dataclass
class Span:
    name: str
    kind: str             # "rep", "cell", "drive" or "setup.<kind>"
    rep: int
    cell: Optional[str]
    start: float          # perf_counter seconds
    end: float = 0.0
    parent: Optional[int] = None   # index into the recorder's span list

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Records spans around builder and driver calls, and profiles each
    cell separately when ``profile`` is set."""

    def __init__(self, profile: bool = False) -> None:
        self.spans: List[Span] = []
        self.profile = profile
        self.profiles: Dict[str, cProfile.Profile] = {}
        self._open: List[int] = []
        self._rep = -1
        self._cell: Optional[str] = None

    def _begin(self, name: str, kind: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, kind, self._rep, self._cell,
                               time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self) -> None:
        self.spans[self._open.pop()].end = time.perf_counter()

    def begin_rep(self, rep: int) -> None:
        self._rep = rep
        self._begin(f"rep{rep}", "rep")

    def end_rep(self) -> None:
        self._end()

    def run_cell(self, cell_id: str, fn, *args):
        """Run one cell inside its span (and its own profiler)."""
        self._cell = cell_id
        self._begin(cell_id, "cell")
        prof = cProfile.Profile() if self.profile else None
        try:
            if prof is None:
                return fn(self, *args)
            self.profiles[cell_id] = prof
            return prof.runcall(fn, self, *args)
        finally:
            self._end()
            self._cell = None

    def setup(self, kind: str, fn, *args, **kwargs):
        """Call a builder; its host time counts as set-up of ``kind``."""
        self._begin(fn.__qualname__, f"setup.{kind}")
        try:
            return fn(*args, **kwargs)
        finally:
            self._end()

    def drive(self, fn, *args, **kwargs):
        """Call a driver; its host time counts as simulation time."""
        self._begin(fn.__qualname__, "drive")
        try:
            return fn(*args, **kwargs)
        finally:
            self._end()

    def seconds(self, rep: int, kind: str,
                cell: Optional[str] = None) -> float:
        """Summed duration of ``rep``'s spans of ``kind`` (a prefix, so
        ``"setup"`` covers every set-up kind), optionally of one cell."""
        return sum((s.seconds for s in self.spans
                    if s.rep == rep and s.kind.startswith(kind)
                    and (cell is None or s.cell == cell)), 0.0)


# -- cProfile attribution -----------------------------------------------------

def _bucket(filename: str) -> Optional[str]:
    """The layer a function's file belongs to, ``"other"`` for the rest of
    the ``repro`` tree, and None for code outside it (stdlib, numpy,
    C built-ins), whose time goes to whichever layer called it."""
    if not filename.startswith(_REPRO_DIR):
        return None
    rel = filename[len(_REPRO_DIR):].split(os.sep)
    return rel[0] if len(rel) > 1 and rel[0] in LAYERS else "other"


@dataclass
class Attribution:
    self_s: Dict[str, float]   # per layer, plus "other"
    calls: Dict[str, int]      # Python calls into functions of each layer
    total_s: float

    def share_pct(self, layer: str) -> float:
        return 100.0 * self.self_s[layer] / self.total_s

    @property
    def coverage(self) -> float:
        """Share of profiled time the named layers account for."""
        return sum(self.self_s[k] for k in LAYERS) / self.total_s


def attribute(profiles) -> Attribution:
    """Sum self time per layer over ``profiles``.

    A function outside ``repro`` (heapq, numpy, enum, ...) has no layer of
    its own: pstats' per-caller entries split its time over its callers in
    proportion to the time each of them spent in it, and a caller outside
    ``repro`` passes its share on to its own callers the same way.  Entry
    points nobody in the profile called count as ``other``.
    """
    raw = pstats.Stats(*profiles).stats
    memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func: tuple, path: frozenset) -> Dict[str, float]:
        bucket = _bucket(func[0])
        if bucket is not None:
            return {bucket: 1.0}
        if func in memo:
            return memo[func]
        callers = raw[func][4] if func in raw else {}
        weight = sum(edge[3] for edge in callers.values())
        if func in path or weight <= 0:
            return {"other": 1.0}
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            for b, share in owners(caller, path | {func}).items():
                out[b] = out.get(b, 0.0) + share * edge[3] / weight
        memo[func] = out
        return out

    self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
    calls = dict.fromkeys(LAYERS + ("other",), 0)
    for func, (_cc, nc, tt, _ct, _callers) in raw.items():
        bucket = _bucket(func[0])
        if bucket is not None:
            calls[bucket] += nc
        for b, share in owners(func, frozenset()).items():
            self_s[b] += tt * share
    return Attribution(self_s=self_s, calls=calls,
                       total_s=sum(self_s.values()))


# -- Chrome trace -------------------------------------------------------------

def write_chrome_trace(path: Path, spans: List[Span], meta: dict) -> None:
    """Write ``spans`` as complete ("X") events, one track per repetition."""
    origin = min((s.start for s in spans), default=0.0)
    events = [{"name": s.name, "cat": s.kind.split(".")[0], "ph": "X",
               "pid": 1, "tid": s.rep,
               "ts": (s.start - origin) * 1e6, "dur": s.seconds * 1e6,
               "args": {"kind": s.kind, "cell": s.cell, "parent": s.parent,
                        "span": i}}
              for i, s in enumerate(spans)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms",
                                "otherData": meta}))
