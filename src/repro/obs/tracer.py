"""The hierarchical span tracer — the heart of the observability layer.

A :class:`SpanTracer` records four kinds of evidence:

* **spans** — ``begin``/``end`` pairs with a track (timeline row), parent
  links (per-track stacks; execution within one track is sequential), and
  key/value attributes,
* **instants** — point events on a track,
* **flow events** — the causal hops :mod:`repro.causal` assembles into a DAG,
* **metrics** — counters/histograms in a :class:`~repro.obs.metrics.MetricsRegistry`.

It is the only tracer that records.  ``capacity`` bounds it for long or
always-on runs (the ``report --trace`` entry point, the telemetry plane's
flight recorder): spans, instants and flows each keep their newest
``capacity`` records and ``dropped`` counts the evicted ones.

Install one on a simulator (``sim.set_tracer(tracer)``) or, for code paths
that build simulators internally, as the process-wide default
(:func:`repro.sim.trace.set_default_tracer`).  A tracer survives being
bound to several simulators in sequence: each re-bind rebases its clock so
the global timeline stays monotonic, which is what lets ``--trace`` on the
report entry point collect every figure's runs into one file.

Instrumented model code follows one pattern::

    trc = self.sim.tracer
    span = trc.begin("pcie", "MWr", track=link_name, bytes=n) if trc.enabled \\
        else NULL_SPAN
    ...timed work...
    span.end()

so the untraced path costs one attribute read and a branch.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, TYPE_CHECKING

from ..errors import ConfigError
from ..sim.trace import NULL_SPAN
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Simulator


@dataclass(frozen=True)
class SpanRecord:
    """One completed span."""

    span_id: int
    parent_id: Optional[int]
    category: str
    name: str
    track: str
    begin: float
    end: float
    depth: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.begin

    def __str__(self) -> str:
        attrs = "".join(f" {k}={v}" for k, v in self.attrs.items())
        return (f"[{self.begin * 1e6:12.3f}us +{self.duration * 1e6:10.3f}us] "
                f"{self.track:<22} {'  ' * self.depth}{self.category}/{self.name}"
                f"{attrs}")


@dataclass(frozen=True)
class FlowRecord:
    """One causal flow event (see :mod:`repro.causal`).

    ``seq`` is a global emission index: two events at the same simulated
    time are ordered by emission, which is exactly the simulator's
    deterministic execution order — the DAG builder uses ``(time, seq)``
    as its happens-before tiebreak.  ``addr`` is the message's address key
    ``(dst_node, dst_nla)`` (or ``None`` for purely local events); both
    endpoints compute it independently from shared protocol state, so no
    descriptor or wire format carries any tracing payload.
    """

    seq: int
    time: float
    kind: str
    actor: str
    addr: Optional[tuple] = None
    attrs: dict = field(default_factory=dict)

    def __str__(self) -> str:
        attrs = "".join(f" {k}={v}" for k, v in self.attrs.items())
        addr = f" @{self.addr}" if self.addr is not None else ""
        return (f"[{self.time * 1e6:12.3f}us             ] "
                f"{self.actor:<22} ~{self.kind}{addr}{attrs}")


@dataclass(frozen=True)
class InstantRecord:
    """One point event."""

    category: str
    name: str
    track: str
    time: float
    attrs: dict = field(default_factory=dict)

    def __str__(self) -> str:
        attrs = "".join(f" {k}={v}" for k, v in self.attrs.items())
        return (f"[{self.time * 1e6:12.3f}us             ] "
                f"{self.track:<22} *{self.category}/{self.name}{attrs}")


class Span:
    """A live (not yet ended) span handle."""

    __slots__ = ("tracer", "span_id", "parent_id", "category", "name",
                 "track", "begin", "depth", "attrs", "epoch")

    def __init__(self, tracer: "SpanTracer", span_id: int,
                 parent_id: Optional[int], category: str, name: str,
                 track: str, begin: float, depth: int, attrs: dict) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.epoch = tracer._epoch
        self.parent_id = parent_id
        self.category = category
        self.name = name
        self.track = track
        self.begin = begin
        self.depth = depth
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes while the span is still open."""
        self.attrs.update(attrs)

    def end(self, **attrs) -> None:
        if attrs:
            self.attrs.update(attrs)
        self.tracer._end_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.attrs.setdefault("error", repr(exc))
        self.end()


class SpanTracer:
    """The recording tracer: spans + instants + flow events + metrics.

    ``categories`` (``None`` = all) selects what is recorded; ``sink``, when
    given, sees every record as it is kept.  ``capacity`` (``None`` =
    unbounded) makes ``spans``, ``instants`` and ``flows`` rings of their
    newest ``capacity`` records each; ``dropped`` counts the evicted ones.
    The bound never touches the run itself or the metrics registry, whose
    aggregates cover every event.
    """

    enabled = True

    def __init__(self, sim: Optional["Simulator"] = None,
                 categories: Optional[Iterable[str]] = None,
                 sink: Optional[Callable[[object], None]] = None,
                 capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.categories = set(categories) if categories is not None else None
        self.capacity = capacity
        self.metrics = MetricsRegistry()
        self.spans: List[SpanRecord] = self._records()
        self.instants: List[InstantRecord] = self._records()
        self.flows: List[FlowRecord] = self._records()
        self.dropped = 0
        self._sink = sink
        self._stacks: Dict[str, List[Span]] = {}
        self._ids = itertools.count(1)
        self._flow_ids = itertools.count(0)
        self._offset = 0.0
        self._latest = 0.0
        self._epoch = 0

    def _records(self):
        return [] if self.capacity is None else deque(maxlen=self.capacity)

    def _keep(self, records, record) -> None:
        if len(records) == self.capacity:
            self.dropped += 1  # the ring evicts its oldest record
        records.append(record)
        if self._sink is not None:
            self._sink(record)

    def wants(self, category: str) -> bool:
        """True when instrumentation in ``category`` should bother building
        its records.  The microscopically hot sites (per-TLP, per-poll) use
        ``trc.wants("pcie")`` instead of ``trc.enabled`` so a
        category-filtered tracer (e.g. the telemetry flight recorder) skips
        not just the span, but the *argument construction* for it."""
        return self.categories is None or category in self.categories

    # -- clock -----------------------------------------------------------------
    def now(self) -> float:
        t = self._offset + (self.sim.now if self.sim is not None else 0.0)
        if t > self._latest:
            self._latest = t
        return t

    def bind(self, sim: "Simulator") -> None:
        """Adopt a (possibly new) simulator.  Re-binding to a different
        simulator rebases the clock past everything recorded so far, keeping
        one monotonic timeline across sequential runs."""
        if sim is self.sim:
            return
        if self.sim is not None:
            self._offset = self._latest
            # Spans begun under the previous simulator can no longer end
            # meaningfully: their processes are dead, and the only way their
            # ``end`` still fires is a ``finally`` run by generator
            # collection at an arbitrary later wall-clock point, which would
            # stamp them with the *new* simulator's time and corrupt the
            # timeline.  Bumping the epoch makes those late ends no-ops.
            self._epoch += 1
            self._stacks.clear()
        self.sim = sim

    # -- spans -----------------------------------------------------------------
    def begin(self, category: str, name: str, track: str = "main",
              **attrs) -> Span:
        if not self.wants(category):
            return NULL_SPAN  # children re-parent to the grandparent
        stack = self._stacks.get(track)
        if stack is None:
            stack = self._stacks[track] = []
        parent_id = stack[-1].span_id if stack else None
        span = Span(self, next(self._ids), parent_id, category, name, track,
                    self.now(), len(stack), attrs)
        stack.append(span)
        return span

    def _end_span(self, span: Span) -> None:
        if span.epoch != self._epoch:
            return  # stale span from a previous simulator binding
        stack = self._stacks.get(span.track)
        if stack is not None:
            # Normally a plain pop; tolerate out-of-order ends from
            # overlapping processes that (incorrectly) share a track.
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is span:
                    del stack[i]
                    break
        self._keep(self.spans, SpanRecord(
            span.span_id, span.parent_id, span.category, span.name,
            span.track, span.begin, self.now(), span.depth, span.attrs))

    def instant(self, category: str, name: str, track: str = "main",
                **attrs) -> None:
        if self.wants(category):
            self._keep(self.instants,
                       InstantRecord(category, name, track, self.now(), attrs))

    # -- causal flow events ------------------------------------------------------
    def flow_event(self, kind: str, actor: str, addr=None, **attrs) -> None:
        """Record one causal flow event (see :mod:`repro.causal`) when the
        ``"causal"`` category passes the filter.  Emission sites guard with
        ``trc.wants("causal")`` so the disarmed path never builds
        arguments."""
        if self.wants("causal"):
            self._keep(self.flows, FlowRecord(next(self._flow_ids),
                                              self.now(), kind, actor, addr,
                                              attrs))

    # -- introspection -----------------------------------------------------------
    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (useful to catch leaks in tests)."""
        return [s for stack in self._stacks.values() for s in stack]

    def tracks(self) -> List[str]:
        seen = {s.track for s in self.spans} | {i.track for i in self.instants}
        return sorted(seen)

    def spans_named(self, name: str) -> List[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self.flows.clear()
        self._stacks.clear()
        self.metrics.clear()
        self.dropped = 0
