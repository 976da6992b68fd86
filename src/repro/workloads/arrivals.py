"""Seeded arrival processes for the open-loop traffic generator.

An arrival process is a deterministic stream of inter-arrival gaps drawn
from its OWN ``random.Random(seed)`` — never from ``sim.rng`` — so the
offered traffic replays bit-identically whatever the model underneath does
(retries, faults, telemetry ticks all consume the simulator's stream, not
this one).  Two processes built with the same parameters produce the same
gaps forever; that is the replay property the hypothesis suite pins.

Both processes converge to the configured mean ``rate`` (requests per
simulated second):

* :class:`PoissonArrivals` — memoryless exponential gaps, the classic
  open-system model.
* :class:`BurstyArrivals` — an on/off process with heavy-tailed burst
  lengths: bursts of ``n ~ Pareto(alpha)`` requests arrive at
  ``burst_factor x rate``, separated by idle gaps sized so each burst of
  ``n`` requests still takes ``n/rate`` expected seconds end to end.  The
  long-run mean rate is therefore exactly ``rate``, but arrivals clump —
  the shape that exposes queueing where Poisson smooths it out.
"""

from __future__ import annotations

import random
from typing import Dict, Type

from ..errors import BenchmarkError

#: Heavy-tail burst lengths are capped so one astronomically unlucky draw
#: cannot stall a bounded run (Pareto(1.1) has infinite variance).
MAX_BURST = 4096


class ArrivalProcess:
    """Base class: a seeded stream of positive inter-arrival gaps."""

    kind = "abstract"

    def __init__(self, rate: float, seed: int = 0) -> None:
        if rate <= 0:
            raise BenchmarkError(f"arrival rate must be > 0, got {rate!r}")
        self.rate = rate
        self.seed = seed
        self._rng = self._fresh_rng()

    def _fresh_rng(self) -> random.Random:
        # String seeding is hashed with sha512 (stable across processes and
        # machines, unlike tuple hashing under PYTHONHASHSEED) — required
        # for bench baselines recorded on one host to check on another.
        return random.Random(f"{self.kind}:{self.seed}")

    def reset(self) -> None:
        """Rewind to the first gap (same stream all over again)."""
        self._rng = self._fresh_rng()

    def next_gap(self) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} rate={self.rate:g}/s "
                f"seed={self.seed}>")


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential gaps with mean ``1/rate``."""

    kind = "poisson"

    def next_gap(self) -> float:
        return self._rng.expovariate(self.rate)


class BurstyArrivals(ArrivalProcess):
    """On/off arrivals with heavy-tailed (Pareto) burst lengths.

    Each burst holds ``n = min(int(pareto(alpha)), MAX_BURST)`` requests
    (at least 1).  The burst opens with one exponential OFF gap of mean
    ``n/rate - (n-1)/(burst_factor*rate)`` and then delivers its remaining
    ``n-1`` requests at ``burst_factor x rate`` — so conditioned on any
    ``n`` the expected time per request is exactly ``1/rate``, and the
    long-run mean rate converges to ``rate`` while short windows see
    ``burst_factor``-times the load.
    """

    kind = "bursty"

    def __init__(self, rate: float, seed: int = 0,
                 burst_factor: float = 8.0, alpha: float = 1.5) -> None:
        if burst_factor <= 1.0:
            raise BenchmarkError(
                f"burst_factor must be > 1 (got {burst_factor!r}); "
                f"use PoissonArrivals for smooth traffic")
        if alpha <= 1.0:
            raise BenchmarkError(
                f"alpha must be > 1 for a finite mean burst length, "
                f"got {alpha!r}")
        super().__init__(rate, seed)
        self.burst_factor = burst_factor
        self.alpha = alpha
        self._burst_remaining = 0

    def reset(self) -> None:
        super().reset()
        self._burst_remaining = 0

    def next_gap(self) -> float:
        if self._burst_remaining > 0:
            self._burst_remaining -= 1
            return self._rng.expovariate(self.burst_factor * self.rate)
        n = min(int(self._rng.paretovariate(self.alpha)), MAX_BURST)
        n = max(n, 1)
        self._burst_remaining = n - 1
        off_mean = n / self.rate - (n - 1) / (self.burst_factor * self.rate)
        return self._rng.expovariate(1.0 / off_mean)


#: Process kinds by CLI/config name.
ARRIVALS: Dict[str, Type[ArrivalProcess]] = {
    PoissonArrivals.kind: PoissonArrivals,
    BurstyArrivals.kind: BurstyArrivals,
}


def arrival_process(kind: str, rate: float, seed: int = 0,
                    **kwargs) -> ArrivalProcess:
    """Build the named arrival process (``poisson`` or ``bursty``)."""
    cls = ARRIVALS.get(kind)
    if cls is None:
        raise BenchmarkError(f"unknown arrival process {kind!r} "
                             f"(choose from: {', '.join(sorted(ARRIVALS))})")
    return cls(rate, seed=seed, **kwargs)
