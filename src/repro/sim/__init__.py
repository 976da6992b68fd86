"""Discrete-event simulation engine.

The rest of the library is built on four ideas:

* :class:`Simulator` — the event loop and clock,
* :class:`Event` / :class:`Timeout` — one-shot occurrences,
* :class:`Process` — coroutines that ``yield`` events to wait on them,
* :class:`Resource` / :class:`Mutex` / :class:`Store` — contention and
  message-passing between processes.
"""

from .engine import Simulator
from .event import Event, EventState, Timeout
from .primitives import AllOf
from .process import Process, join_result
from .resource import Mutex, Resource, Store
from .trace import (
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    SampledStats,
    get_default_tracer,
    set_default_tracer,
)

__all__ = [
    "Simulator",
    "Event",
    "EventState",
    "Timeout",
    "AllOf",
    "Process",
    "join_result",
    "Mutex",
    "Resource",
    "Store",
    "NullTracer",
    "NullSpan",
    "NULL_TRACER",
    "NULL_SPAN",
    "NULL_METRICS",
    "SampledStats",
    "get_default_tracer",
    "set_default_tracer",
]
