"""The one spin loop: every poller in the library waits through :func:`spin`.

A wait repeats one *probe* until it hits.  A probe is one poll step: a
generator that charges the poll's modeled cost and returns the hit, or
``None`` on a miss.  :func:`spin` counts the polls, enforces the poll
budget, backs off on long waits, and owns the wait's one polling-layer span
and its histogram.  The host and device ``spin_until_u64``, the host and
GPU CQ waits and the host and GPU notification waits are calls to it.

The backoff is a modelling compromise: past ``after`` misses a poller idles
between polls, so a multi-millisecond transfer does not cost millions of
poll events.  The paper's latency-path waits end before it engages.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace import NULL_SPAN


@dataclass(frozen=True)
class Backoff:
    """No gap for the first ``after`` misses, then ``base`` seconds,
    doubling every ``every`` polls up to ``cap``."""

    after: int
    base: float
    every: int
    cap: float

    def delay(self, polls: int) -> float:
        """The idle gap after miss number ``polls`` (> ``after``)."""
        return min(self.base * (2 ** ((polls - self.after) // self.every)),
                   self.cap)


#: Host threads (PAUSE-loop style): after 256 misses, 0.2 µs doubling every
#: 64 polls up to 20 µs.
HOST_BACKOFF = Backoff(256, 0.2e-6, 64, 20e-6)
#: Device threads (the scoreboard deschedules the warp): after 64 misses,
#: 1 µs doubling every 32 polls up to 50 µs.
GPU_BACKOFF = Backoff(64, 1e-6, 32, 50e-6)


def spin(ctx, probe, args, max_polls, error, what, span=None, histogram=None):
    """Call ``probe(*args)`` until it returns a hit; return ``(hit, polls)``.

    ``ctx`` is the polling thread: its ``sim``, its trace ``track`` and its
    ``BACKOFF`` schedule.  After ``max_polls`` misses (``None``: no budget)
    the wait raises ``error("<what> exceeded <max_polls> polls")``.
    ``span`` is ``(category, name)`` or ``(category, name, fields)``: when
    the tracer wants the category, the wait is one span that ends with its
    poll count (and an ``error`` field if the budget runs out), and
    ``histogram`` observes the count of a hit.  ``what`` and the ``fields``
    values are ``str.format`` templates over ``args``, so a wait builds its
    strings only when it is traced or raises.
    """
    sim = ctx.sim
    trc = sim.tracer
    traced = span is not None and trc.wants(span[0])
    if traced:
        fields = ({k: v.format(*args) for k, v in span[2].items()}
                  if len(span) > 2 else {})
        handle = trc.begin(span[0], span[1], track=ctx.track, **fields)
    else:
        handle = NULL_SPAN
    backoff = ctx.BACKOFF
    after = backoff.after
    polls = 0
    while True:
        hit = yield from probe(*args)
        polls += 1
        if hit is not None:
            handle.end(polls=polls)
            if traced and histogram is not None:
                trc.metrics.histogram(histogram).observe(polls)
            return hit, polls
        if max_polls is not None and polls >= max_polls:
            handle.end(polls=polls, error="poll budget exhausted")
            raise error(f"{what.format(*args)} exceeded {max_polls} polls")
        if polls > after:
            yield sim.timeout(backoff.delay(polls))
