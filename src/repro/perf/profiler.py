"""Cost-attribution profiler: where does a put/get round actually go?

The benchmark drivers time two aggregate phases per iteration (WR
generation and completion polling — Fig. 3's two bars).  The span tracer
records every micro-step underneath.  This module joins the two: it carves
the measured region into the driver's posting/polling windows and then
attributes every simulated nanosecond inside them to one cost component by
interval arithmetic (:mod:`repro.obs.query`):

``wqe-generation`` (or ``host-assist``)
    Time in the posting window not explained by any transport span: the
    thread assembling the descriptor/WQE.  For the assisted modes this is
    the GPU<->host mailbox round plus the host's posting work, so it is
    labeled ``host-assist`` there.
``doorbell-mmio``
    PCIe activity inside the posting window — the BAR store(s) that post
    the descriptor and ring the doorbell (Table II's MMIO writes).
``wire``
    Network-link occupancy (serialization + propagation), wherever it
    falls.
``data-dma``
    DMA engine activity not already counted as wire time — payload staging
    between host and device memory.
``completion-mmio``
    PCIe activity inside the polling window — this is exactly the cost
    Fig. 3 exposes: every poll of a system-memory notification queue is a
    PCIe round trip from the GPU (§V-A3, Table I's sysmem reads).
``completion-polling``
    The polling-window remainder: spin iterations on device memory or
    host L1, scheduler backoff, and the peer's turnaround the pinger sits
    through.

Because the driver's phase spans tile the measured region exactly
(``sum == 2 * latency * iterations`` — enforced by tests/obs), the six
components form an exact partition of end-to-end time, so the profile
*reconciles*: attributed time matches the ``LatencyPoint`` under the
shared 1% agreement rule (:func:`repro.analysis.invariants.reconciles`;
in practice, to the float).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..analysis.invariants import (Verdict, reconciles, relative_error,
                                  render, to_json)
from ..core.results import LatencyPoint
from ..obs.query import (
    Interval,
    coverage,
    merge,
    overlap,
    span_intervals,
    subtract,
)

#: Canonical row order of a profile.
PHASE_ORDER = ("wqe-generation", "host-assist", "doorbell-mmio", "wire",
               "data-dma", "completion-mmio", "completion-polling")

#: Transport categories attributed with priority inside each window: wire
#: time wins over DMA, DMA over PCIe, so overlapping spans (a DMA driving a
#: PCIe link, a packet on the wire during a DMA) are counted once.
_TRANSPORT_PRIORITY = ("net", "dma", "pcie")

#: Every span category a profile reads: a trace filtered without one of
#: them would attribute that category's time to the wrong component.
PROFILE_CATEGORIES = ("phase",) + _TRANSPORT_PRIORITY

#: Metrics registry entries worth surfacing next to a profile (histograms
#: summarized, counters verbatim) — the Table I/II counter attribution.
_COUNTER_PREFIXES = ("rma.", "ib.", "gpu.", "pcie.", "net.", "fault")


@dataclass(frozen=True)
class PhaseCost:
    """One attributed component, totaled over the measured iterations."""

    name: str
    seconds: float
    share: float        # fraction of the measured end-to-end time

    @property
    def us(self) -> float:
        return self.seconds * 1e6


@dataclass
class ModeProfile:
    """The full attribution of one (fabric, mode, size) measurement."""

    fabric: str
    mode: str
    size: int
    iterations: int
    point: LatencyPoint
    phases: List[PhaseCost]
    counters: Dict[str, object] = field(default_factory=dict)

    @property
    def e2e(self) -> float:
        """Measured end-to-end seconds: the full ping-pong region (two
        half-round-trips per iteration)."""
        return 2.0 * self.point.latency * self.iterations

    @property
    def attributed(self) -> float:
        return sum(p.seconds for p in self.phases)

    @property
    def reconciliation_error(self) -> float:
        """|attributed - measured| / measured."""
        return relative_error(self.attributed, self.e2e)

    @property
    def verdict(self) -> Verdict:
        """Attributed phases vs the measured end-to-end time."""
        return reconciles("reconciliation", self.attributed, self.e2e)

    @property
    def reconciles(self) -> bool:
        return self.verdict.ok

    def phase(self, name: str) -> PhaseCost:
        for p in self.phases:
            if p.name == name:
                return p
        return PhaseCost(name, 0.0, 0.0)

    def per_iteration_us(self, name: str) -> float:
        return self.phase(name).us / self.iterations

    def to_dict(self) -> dict:
        return {
            "fabric": self.fabric, "mode": self.mode, "size": self.size,
            "iterations": self.iterations, "point": self.point.to_dict(),
            "phases": [{"name": p.name, "us": p.us, "share": p.share,
                        "us_per_iteration": p.us / self.iterations}
                       for p in self.phases],
            "e2e_us": self.e2e * 1e6,
            "attributed_us": self.attributed * 1e6,
            "reconciliation_error": self.reconciliation_error,
            "reconciles": self.reconciles,
            "verdicts": to_json([self.verdict]),
            "counters": self.counters,
        }


def _attribute_window(windows: Sequence[Interval],
                      transport: Dict[str, List[Interval]],
                      mmio_label: str, rest_label: str,
                      ) -> List[Tuple[str, float]]:
    """Split ``windows`` into wire / data-dma / mmio / remainder by
    priority: each transport category only claims time no higher-priority
    category already explained."""
    claimed: List[Interval] = []
    out: List[Tuple[str, float]] = []
    labels = {"net": "wire", "dma": "data-dma", "pcie": mmio_label}
    for category in _TRANSPORT_PRIORITY:
        inside = overlap(transport[category], windows)
        fresh = subtract(inside, claimed)
        out.append((labels[category], coverage(fresh)))
        claimed = merge(list(claimed) + list(fresh))
    out.append((rest_label, coverage(subtract(list(windows), claimed))))
    return out


def attribute_phases(tracer, mode: str) -> Dict[str, float]:
    """Interval-attribute one traced ping-pong (its ``ping`` track) into
    the six cost components; returns ``{phase name: seconds}`` (totals
    over all measured iterations)."""
    posting = merge(span_intervals(tracer, category="phase",
                                   name="wr-generation", track="ping"))
    polling = merge(span_intervals(tracer, category="phase",
                                   name="polling", track="ping"))
    transport = {c: merge(span_intervals(tracer, category=c))
                 for c in _TRANSPORT_PRIORITY}
    rest_label = "host-assist" if "assisted" in mode else "wqe-generation"
    costs: Dict[str, float] = {}
    for label, seconds in (
            _attribute_window(posting, transport, "doorbell-mmio", rest_label)
            + _attribute_window(polling, transport, "completion-mmio",
                                "completion-polling")):
        costs[label] = costs.get(label, 0.0) + seconds
    return costs


def _interesting_counters(tracer) -> Dict[str, object]:
    snap = tracer.metrics.snapshot()  # flat: name -> int | summary dict
    return {name: value for name, value in snap.items()
            if name.startswith(_COUNTER_PREFIXES)}


def profile_from_trace(tracer, point: LatencyPoint, fabric: str, mode: str,
                       iterations: int) -> ModeProfile:
    """Build a :class:`ModeProfile` from an already-recorded trace."""
    costs = attribute_phases(tracer, mode)
    e2e = 2.0 * point.latency * iterations
    phases = [PhaseCost(name, costs[name],
                        costs[name] / e2e if e2e > 0 else 0.0)
              for name in PHASE_ORDER if name in costs]
    return ModeProfile(fabric=fabric, mode=mode, size=point.size,
                       iterations=iterations, point=point, phases=phases,
                       counters=_interesting_counters(tracer))


def profile_pingpong(fabric: str, mode: str, size: int,
                     iterations: int = 10, warmup: int = 2) -> ModeProfile:
    """Run one traced ping-pong and attribute its cost.  ``mode`` is the
    CLI spelling (e.g. ``dev2dev-direct``, ``bufOnGPU``)."""
    from ..obs.cli import run_traced_pingpong  # deferred: avoids CLI deps
    tracer, point = run_traced_pingpong(fabric, mode, size,
                                        iterations, warmup)
    return profile_from_trace(tracer, point, fabric, mode, iterations)


def render_profile(profile: ModeProfile) -> str:
    """Fixed-width table: one row per cost component, per-iteration and
    total, plus the reconciliation verdict."""
    title = (f"{profile.fabric} {profile.mode} size={profile.size}B "
             f"x{profile.iterations} iterations")
    lines = [title, "=" * len(title),
             "phase".ljust(20) + "per-iter".rjust(12) + "total".rjust(12)
             + "share".rjust(9)]
    for p in profile.phases:
        lines.append(p.name.ljust(20)
                     + f"{p.us / profile.iterations:10.3f}us"
                     + f"{p.us:10.3f}us"
                     + f"{p.share * 100:7.2f}%")
    lines.append("-" * len(lines[2]))
    lines.append("attributed".ljust(20)
                 + f"{profile.attributed * 1e6 / profile.iterations:10.3f}us"
                 + f"{profile.attributed * 1e6:10.3f}us"
                 + f"{sum(p.share for p in profile.phases) * 100:7.2f}%")
    lines.append("measured e2e".ljust(20)
                 + f"{profile.e2e * 1e6 / profile.iterations:10.3f}us"
                 + f"{profile.e2e * 1e6:10.3f}us")
    lines.append(render([profile.verdict]))
    ratio = profile.point.poll_to_post_ratio
    if ratio == ratio and ratio != float("inf"):
        lines.append(f"poll/post ratio (Fig. 3): {ratio:.2f}x")
    return "\n".join(lines)
