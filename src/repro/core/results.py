"""Result containers shared by the benchmark programs and the analysis layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..gpu import CounterSet
from ..units import format_size, mb_per_s


@dataclass(frozen=True)
class LatencyPoint:
    """One (message size, half-round-trip latency) sample."""

    size: int
    latency: float            # seconds
    post_time: float = 0.0    # time spent generating/posting the WR (Fig. 3)
    poll_time: float = 0.0    # time spent polling for completion (Fig. 3)

    @property
    def latency_us(self) -> float:
        return self.latency * 1e6

    @property
    def poll_to_post_ratio(self) -> float:
        """Polling time over WR-generation time — the quantity Fig. 3 plots
        (§V-A3: 'polling on system memory needs ten times the time than it
        is needed to post the WR').

        A measurement that spent time polling but recorded no posting time
        has an unbounded ratio (``inf``); the ratio is undefined (``nan``)
        only when neither phase was measured.
        """
        if self.post_time <= 0.0:
            return float("inf") if self.poll_time > 0.0 else float("nan")
        return self.poll_time / self.post_time

    def to_dict(self) -> dict:
        """JSON-safe view for baselines and profile reports (the unbounded
        / undefined ratio serializes as ``None``, never ``inf``/``nan``)."""
        ratio = self.poll_to_post_ratio
        return {"size": self.size, "latency_us": self.latency_us,
                "post_time_us": self.post_time * 1e6,
                "poll_time_us": self.poll_time * 1e6,
                "poll_to_post_ratio":
                    ratio if ratio == ratio and ratio != float("inf") else None}


@dataclass(frozen=True)
class BandwidthPoint:
    size: int
    bytes_moved: int
    elapsed: float

    @property
    def mb_per_s(self) -> float:
        return mb_per_s(self.bytes_moved, self.elapsed)

    def to_dict(self) -> dict:
        return {"size": self.size, "bytes_moved": self.bytes_moved,
                "elapsed_us": self.elapsed * 1e6, "mb_per_s": self.mb_per_s}


@dataclass(frozen=True)
class RatePoint:
    connections: int
    messages: int
    elapsed: float

    @property
    def messages_per_s(self) -> float:
        return self.messages / self.elapsed


@dataclass
class Series:
    """One labeled curve of a figure."""

    label: str
    points: list = field(default_factory=list)

    def by_x(self) -> dict:
        out = {}
        for p in self.points:
            x = getattr(p, "size", None)
            if x is None:
                x = getattr(p, "connections")
            out[x] = p
        return out


@dataclass
class CounterReport:
    """Counters of one GPU over a measured region, normalized per iteration."""

    label: str
    iterations: int
    counters: CounterSet


def render_latency_table(series: List[Series], title: str) -> str:
    """Text rendering in the layout of the paper's latency figures."""
    sizes = sorted({p.size for s in series for p in s.points})
    width = max(len(s.label) for s in series) + 2
    lines = [title, "=" * len(title)]
    header = "size".rjust(10) + "".join(s.label.rjust(width + 12)[:width + 12]
                                        for s in series)
    lines.append(header)
    for size in sizes:
        row = format_size(size).rjust(10)
        for s in series:
            p = s.by_x().get(size)
            cell = f"{p.latency_us:.2f}us" if p else "-"
            row += cell.rjust(width + 12)
        lines.append(row)
    return "\n".join(lines)


def render_bandwidth_table(series: List[Series], title: str) -> str:
    sizes = sorted({p.size for s in series for p in s.points})
    width = max(len(s.label) for s in series) + 2
    lines = [title, "=" * len(title)]
    lines.append("size".rjust(10) + "".join(s.label.rjust(width + 12)[:width + 12]
                                            for s in series))
    for size in sizes:
        row = format_size(size).rjust(10)
        for s in series:
            p = s.by_x().get(size)
            cell = f"{p.mb_per_s:.1f}MB/s" if p else "-"
            row += cell.rjust(width + 12)
        lines.append(row)
    return "\n".join(lines)


def render_rate_table(series: List[Series], title: str) -> str:
    xs = sorted({p.connections for s in series for p in s.points})
    width = max(len(s.label) for s in series) + 2
    lines = [title, "=" * len(title)]
    lines.append("conns".rjust(8) + "".join(s.label.rjust(width + 14)[:width + 14]
                                            for s in series))
    for x in xs:
        row = str(x).rjust(8)
        for s in series:
            p = s.by_x().get(x)
            cell = f"{p.messages_per_s:,.0f}/s" if p else "-"
            row += cell.rjust(width + 14)
        lines.append(row)
    return "\n".join(lines)


def render_counter_table(reports: List[CounterReport], title: str) -> str:
    """Text rendering in the layout of Tables I and II."""
    lines = [title, "=" * len(title)]
    labels = [r.label for r in reports]
    lines.append("metric".ljust(34) + "".join(l.rjust(18) for l in labels))
    rows = reports[0].counters.table_rows()
    for i, (metric, _) in enumerate(rows):
        row = metric.ljust(34)
        for r in reports:
            row += f"{r.counters.table_rows()[i][1]:,}".rjust(18)
        lines.append(row)
    return "\n".join(lines)
