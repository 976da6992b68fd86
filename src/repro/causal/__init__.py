"""Causal tracing + critical-path analysis across the put/get stack.

Every message the stack moves — msglib slot puts, raw RMA/IB work
requests, engine batches, triggered chains, MPI envelopes, workload
requests — already flows through a handful of chokepoints (staging,
posting, DMA, wire, delivery, drain).  This package turns the
:meth:`~repro.obs.SpanTracer.flow_event` breadcrumbs those chokepoints
drop into a happens-before DAG and walks it backward from each request's
completion to its dispatch, yielding the request's **critical path**: the
single chain of dependencies whose durations sum *exactly* to the
measured end-to-end latency (the DES is deterministic, so reconciliation
is 0%, not approximate).

Flow identity is **address-keyed**: both ends of a message independently
compute ``(dst_node, dst_nla)`` from protocol state they already share
(ring slot arithmetic, descriptor fields), so causal context rides
in-band as span attributes and the wire format carries zero tracing
payload.  Repeated use of one address (slot-ring reuse) is disambiguated
by *wave*: the i-th ``pst`` at an address pairs with the i-th ``dlv``
there, which is sound because slot reuse is credit-separated in
fault-free runs.

Layout:

* :mod:`~repro.causal.events` — the event vocabulary and the per-segment
  blame categories (PR 4's six-phase vocabulary plus ``blocked-on-credit``
  / ``blocked-on-remote``),
* :mod:`~repro.causal.dag` — wave indexing + per-kind predecessor rules,
* :mod:`~repro.causal.critpath` — extraction, blame shares, straggler /
  per-rank slack, reconciliation gates,
* :mod:`~repro.causal.export` — waterfall text report + annotated Chrome
  trace with flow arrows,
* :mod:`~repro.causal.cli` — ``python -m repro critpath``.
"""

from .critpath import (CriticalPath, RunAnalysis, Segment, analyze_run,
                       extract_path)
from .dag import CausalDag
from .events import CATEGORY_ORDER, EDGE_KINDS, KNOWN_KINDS

__all__ = [
    "CATEGORY_ORDER",
    "CausalDag",
    "CriticalPath",
    "EDGE_KINDS",
    "KNOWN_KINDS",
    "RunAnalysis",
    "Segment",
    "analyze_run",
    "extract_path",
]
