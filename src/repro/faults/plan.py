"""Fault plans: the declarative, seeded description of what goes wrong.

A :class:`FaultPlan` says, per link (or for every link), how often packets
are dropped, corrupted, or delayed out of order, and when links go down —
one-shot windows, periodic flaps, or probabilistic flaps.  The plan is pure
data; :class:`repro.faults.FaultInjector` turns it into link state and
scheduled processes on a concrete cluster.

Determinism: every random decision is drawn from a per-link
``random.Random`` stream derived from ``(simulator seed, plan seed, link
name)`` — never from wall-clock — so two runs with the same seeds replay
the same faults event for event, which is what lets
``tests/test_determinism.py`` assert byte-identical traces for chaos runs.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..errors import ConfigError


@dataclass(frozen=True)
class LinkFaults:
    """Fault behavior of one link (both directions).

    ``loss``/``corrupt``/``delay_prob`` are per-packet probabilities;
    ``delay_max`` bounds the uniform extra delay of a delayed packet, which
    bypasses the link's in-order delivery chain — delayed packets may
    overtake or be overtaken (reordering).  ``down_windows`` are explicit
    ``(start, duration)`` outages; the ``flap_*`` family schedules periodic
    outages: from ``flap_start``, every ``flap_period`` seconds the link
    goes down for ``flap_downtime`` with probability ``flap_prob``,
    ``flap_count`` times.
    """

    loss: float = 0.0
    corrupt: float = 0.0
    delay_prob: float = 0.0
    delay_max: float = 0.0
    down_windows: Tuple[Tuple[float, float], ...] = ()
    flap_start: float = 0.0
    flap_period: float = 0.0
    flap_downtime: float = 0.0
    flap_count: int = 0
    flap_prob: float = 1.0

    def __post_init__(self) -> None:
        for name in ("loss", "corrupt", "delay_prob", "flap_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {p}")
        if self.delay_max < 0 or self.flap_start < 0:
            raise ConfigError("delay_max/flap_start must be >= 0")
        if self.delay_prob > 0 and self.delay_max <= 0:
            raise ConfigError("delay_prob > 0 needs delay_max > 0")
        if self.flap_count < 0:
            raise ConfigError(f"flap_count must be >= 0, got {self.flap_count}")
        if self.flap_count > 0:
            if self.flap_period <= 0 or self.flap_downtime <= 0:
                raise ConfigError("flapping needs flap_period and "
                                  "flap_downtime > 0")
            if self.flap_downtime >= self.flap_period:
                raise ConfigError("flap_downtime must be < flap_period "
                                  "(the link must come back up)")
        for start, duration in self.down_windows:
            if start < 0 or duration <= 0:
                raise ConfigError(
                    f"bad down window ({start}, {duration})")

    @property
    def is_null(self) -> bool:
        """True iff this config injects nothing at all — the zero-cost
        path: the injector installs no state and no processes for it."""
        return (self.loss == 0.0 and self.corrupt == 0.0
                and self.delay_prob == 0.0 and not self.down_windows
                and self.flap_count == 0)


@dataclass(frozen=True)
class FaultPlan:
    """Which faults to inject where.

    ``default`` applies to every link; ``links`` overrides individual links
    keyed by the unordered node-id pair.  ``seed`` perturbs the per-link
    random streams independently of the simulator seed, so one cluster
    seed can host many distinct chaos scenarios.
    """

    seed: int = 0
    default: LinkFaults = field(default_factory=LinkFaults)
    links: Tuple[Tuple[Tuple[int, int], LinkFaults], ...] = ()

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: attaching it is exactly a no-op."""
        return cls()

    @classmethod
    def uniform(cls, loss: float = 0.0, corrupt: float = 0.0,
                seed: int = 0) -> "FaultPlan":
        """Same loss and corruption on every link, no delays or outages."""
        return cls(seed=seed, default=LinkFaults(loss=loss, corrupt=corrupt))

    @classmethod
    def for_links(cls, overrides: Dict[Tuple[int, int], LinkFaults],
                  seed: int = 0) -> "FaultPlan":
        """Per-link overrides (keys are unordered node-id pairs) over
        fault-free links."""
        normalized = tuple(sorted(
            ((min(a, b), max(a, b)), cfg) for (a, b), cfg in overrides.items()))
        return cls(seed=seed, links=normalized)

    def for_link(self, node_a: int, node_b: int) -> LinkFaults:
        key = (min(node_a, node_b), max(node_a, node_b))
        for k, cfg in self.links:
            if k == key:
                return cfg
        return self.default

    @property
    def is_null(self) -> bool:
        return self.default.is_null and all(cfg.is_null
                                            for _k, cfg in self.links)

    def link_seed(self, sim_seed: int, link_name: str) -> int:
        """The derived seed of one link's random stream.  Stable across
        processes (CRC of the name, not Python's salted ``hash``)."""
        return (sim_seed * 1000003 + self.seed * 8191) ^ zlib.crc32(
            link_name.encode())

    def link_rng(self, sim_seed: int, link_name: str) -> random.Random:
        return random.Random(self.link_seed(sim_seed, link_name))
