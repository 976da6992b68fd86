"""The sampler: the telemetry plane's heartbeat on the simulator event loop.

A :class:`Sampler` re-arms itself with :meth:`Simulator.call_later` every
``interval`` simulated seconds (one heap entry per tick, no coroutine) and,
on each tick, polls its *sources*:

* **stats objects** — anything with the uniform ``snapshot()/diff()``
  protocol (:class:`~repro.engine.EngineStats`,
  :class:`~repro.faults.FaultInjector`, a reliable
  :class:`~repro.collectives.Communicator`, ...).  Counters land as
  per-window deltas, names in the optional ``GAUGES`` class attribute as
  levels.
* **counter functions** — a callable returning a flat monotonic
  ``{name: value}`` dict (per-link byte counts, NIC hardware counters);
  the sampler differences consecutive reads itself.
* **gauge functions** — a callable returning one instantaneous float
  (queue depth, proxy occupancy).
* **metrics registries** — counters by value-diffing, histograms by
  retaining per-tick :meth:`~repro.obs.metrics.Histogram.state` snapshots,
  from which :meth:`window_histogram` reconstructs the distribution of any
  ``(w0, w1]`` window via :meth:`~repro.obs.metrics.Histogram.delta` — so
  per-window tail percentiles come from the one shared
  :meth:`~repro.obs.metrics.Histogram.percentile` implementation.

Crucially the sampler only *reads* model state: it adds heap events, never
touches queues or memory, so the simulation's measured results are
bit-identical with or without it (the zero-perturbation invariant the
bench harness checks).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..obs.metrics import Histogram
from ..sim import Simulator
from .series import Series, SeriesBank


class Sampler:
    """Periodic snapshotting of counters/metrics into ring-buffered series.

    Parameters
    ----------
    sim:
        The simulator whose event loop drives the ticks.
    interval:
        Sim-time seconds between samples.
    capacity:
        Ring size of every series (and of the histogram-state rings).
    """

    def __init__(self, sim: Simulator, interval: float = 5e-6,
                 capacity: int = 4096) -> None:
        if not 0 < interval < math.inf:
            raise ConfigError(f"interval must be finite and > 0, got "
                              f"{interval!r}")
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.interval = interval
        self.bank = SeriesBank(capacity)
        self.ticks = 0
        #: Tick timestamps, oldest first (ring-bounded like the series).
        self.tick_times: Deque[float] = deque(maxlen=capacity)
        #: Called after every tick as ``cb(sampler, time)`` — how the SLO
        #: monitors evaluate live instead of post-hoc.
        self.on_tick: List[Callable[["Sampler", float], None]] = []
        self._stats_sources: List[Tuple[str, object, Optional[dict]]] = []
        self._counter_fns: List[Tuple[str, Callable[[], Dict[str, float]],
                                      Dict[str, float]]] = []
        self._gauge_fns: List[Tuple[str, Callable[[], float]]] = []
        self._registries: List[Tuple[str, object, Dict[str, int]]] = []
        self._hist_states: Dict[str, Deque[Tuple[float, dict]]] = {}
        self._prev_events = 0
        self._started = False
        self._stopped = False

    # -- sources -------------------------------------------------------------------
    def watch_stats(self, prefix: str, obj: object) -> None:
        """Poll ``obj.snapshot()/diff()`` each tick; series are named
        ``{prefix}.{key}``.  Keys listed in ``type(obj).GAUGES`` record as
        gauges, the rest as counter deltas."""
        self._stats_sources.append((prefix, obj, None))

    def watch_counters(self, prefix: str,
                       fn: Callable[[], Dict[str, float]]) -> None:
        """Poll a flat monotonic counter dict; the sampler differences
        consecutive reads (first tick diffs against zero)."""
        self._counter_fns.append((prefix, fn, {}))

    def watch_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Sample ``fn()`` as an instantaneous level each tick."""
        self._gauge_fns.append((name, fn))

    def watch_registry(self, registry, prefix: str = "") -> None:
        """Poll a :class:`~repro.obs.metrics.MetricsRegistry`: counters as
        deltas, histograms as retained state snapshots for
        :meth:`window_histogram`."""
        self._registries.append((prefix, registry, {}))

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        """Arm the first tick, ``interval`` from now.  Idempotent."""
        if self._started:
            return
        self._started = True
        self._stopped = False
        self._prev_events = self.sim.events_processed
        self.sim.call_later(self.interval, self._tick, name="telemetry.tick")

    def stop(self) -> None:
        """Stop sampling: the already-scheduled tick fires as a no-op and
        does not re-arm, so the heap drains normally afterwards."""
        self._stopped = True
        self._started = False

    # -- the tick ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._stopped:
            return
        t = self.sim.now
        bank = self.bank
        # Built-in: event-loop work per window (the bench harness's
        # machine-independent cost proxy, now visible live).
        events = self.sim.events_processed
        bank.record("sim.events", "counter", t, events - self._prev_events)
        self._prev_events = events

        for i, (prefix, obj, prev) in enumerate(self._stats_sources):
            snap = obj.snapshot()
            delta = obj.diff(prev) if prev is not None else dict(snap)
            gauges = getattr(type(obj), "GAUGES", ())
            for key, value in delta.items():
                kind = "gauge" if key in gauges else "counter"
                bank.record(f"{prefix}.{key}", kind, t, value)
            self._stats_sources[i] = (prefix, obj, snap)

        for prefix, fn, prev in self._counter_fns:
            current = fn()
            for key, value in current.items():
                name = f"{prefix}.{key}" if prefix else key
                bank.record(name, "counter", t, value - prev.get(key, 0))
            prev.clear()
            prev.update(current)

        for name, fn in self._gauge_fns:
            bank.record(name, "gauge", t, fn())

        for prefix, registry, prev in self._registries:
            for key, value in registry.counter_values().items():
                name = f"{prefix}.{key}" if prefix else key
                bank.record(name, "counter", t, value - prev.get(key, 0))
                prev[key] = value
            for key, hist in registry.histograms().items():
                name = f"{prefix}.{key}" if prefix else key
                ring = self._hist_states.get(name)
                if ring is None:
                    ring = self._hist_states[name] = deque(
                        maxlen=self.bank.capacity)
                last = ring[-1][1] if ring else None
                if last is not None and last["count"] == hist.count:
                    # Unchanged since the previous tick (histograms only
                    # grow, so equal counts mean equal content): share the
                    # state object instead of re-copying the buckets.
                    ring.append((t, last))
                else:
                    ring.append((t, hist.state()))

        self.ticks += 1
        self.tick_times.append(t)
        for cb in self.on_tick:
            cb(self, t)
        if not self._stopped:
            self.sim.call_later(self.interval, self._tick,
                                name="telemetry.tick")

    # -- windowed reads ------------------------------------------------------------
    def histogram_names(self) -> List[str]:
        return sorted(self._hist_states)

    def window_histogram(self, name: str, w0: float, w1: float,
                         ) -> Optional[Histogram]:
        """The distribution of samples observed in ``(w0, w1]``, built by
        differencing the retained histogram states nearest the bounds.
        None if the histogram was never seen or has no state at or before
        ``w1`` yet."""
        ring = self._hist_states.get(name)
        if not ring:
            return None
        earlier = current = None
        for t, state in ring:
            if t <= w0:
                earlier = state
            if t <= w1:
                current = state
            else:
                break
        if current is None:
            return None
        return Histogram.delta(name, current, earlier)

    def percentile(self, name: str, q: float, w0: Optional[float] = None,
                   w1: Optional[float] = None) -> Optional[float]:
        """``q``-th percentile of histogram ``name`` over ``(w0, w1]``
        (whole retained history by default) via THE shared
        :meth:`~repro.obs.metrics.Histogram.percentile`."""
        hist = self.window_histogram(
            name, w0 if w0 is not None else float("-inf"),
            w1 if w1 is not None else float("inf"))
        return hist.percentile(q) if hist is not None else None

    def series(self, name: str) -> Optional[Series]:
        return self.bank.get(name)
