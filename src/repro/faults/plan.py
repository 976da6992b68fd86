"""Fault plans: the declarative, seeded description of what goes wrong.

A :class:`FaultPlan` says, per link (or for every link), how often packets
are dropped and how often they are corrupted.  Nothing else goes wrong:
links stay up and deliver whatever survives in the order it was sent, the
premise the paper's poll-the-last-word modes rest on (§V-B1).  The plan is
pure data; :class:`repro.faults.FaultInjector` turns it into link state on
a concrete cluster.

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
    """Fault behavior of one link (both directions): ``loss`` and
    ``corrupt`` are per-packet probabilities."""

    loss: float = 0.0
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss", "corrupt"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {p}")

    @property
    def is_null(self) -> bool:
        """True iff this config injects nothing at all — the zero-cost
        path: the injector installs no state for it."""
        return self.loss == 0.0 and self.corrupt == 0.0


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
        """Same loss and corruption on every link."""
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
