"""Multi-connection service order and polling backoff — pure logic.

The engine replaces the paper's one-block-per-connection structure with a
single persistent proxy loop that owns M connections.  This module decides
*which lane gets served next* and *how hard to poll when nothing moves*;
like :mod:`repro.engine.batch` it is simulator-free so the policies can be
unit-tested directly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ConfigError

POLICIES = ("round-robin", "priority")


class Scheduler:
    """Service-order policy over ``n_lanes`` submission rings.

    ``round-robin``
        Each service pass starts one lane past where the previous pass
        started, so no lane structurally goes first.
    ``priority``
        Lanes are served in descending ``priorities`` order every pass;
        ties rotate round-robin among themselves so equal-priority lanes
        still share fairly.
    """

    def __init__(self, n_lanes: int, policy: str = "round-robin",
                 priorities: Optional[Sequence[int]] = None) -> None:
        if n_lanes < 1:
            raise ConfigError(f"need >= 1 lane, got {n_lanes}")
        if policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {policy!r} (choose from {POLICIES})")
        if priorities is not None and len(priorities) != n_lanes:
            raise ConfigError(
                f"{len(priorities)} priorities for {n_lanes} lanes")
        self.n_lanes = n_lanes
        self.policy = policy
        self.priorities = list(priorities) if priorities is not None \
            else [0] * n_lanes
        self._cursor = 0
        self.passes = 0

    def service_order(self) -> List[int]:
        """Lane indices for the next service pass."""
        self.passes += 1
        start = self._cursor
        self._cursor = (self._cursor + 1) % self.n_lanes
        rotated = [(start + i) % self.n_lanes for i in range(self.n_lanes)]
        if self.policy == "round-robin":
            return rotated
        # Priority: stable sort of the rotated order by descending
        # priority — rotation breaks ties, priority decides groups.
        return sorted(rotated, key=lambda j: -self.priorities[j])


class AdaptiveBackoff:
    """Spin -> yield with exponential backoff for the completion side.

    The proxy loop calls :meth:`idle` after a service pass that made no
    progress: the first ``spin_passes`` misses return ``0.0`` (keep
    spinning — latency matters while traffic is in flight), after which
    the returned delay doubles from ``base`` up to ``max_delay`` (the
    warp yields; a parked engine must not saturate PCIe with polls).
    Any progress resets the ladder via :meth:`reset`.
    """

    def __init__(self, spin_passes: int = 4, base: float = 0.5e-6,
                 max_delay: float = 50e-6) -> None:
        if spin_passes < 0:
            raise ConfigError(f"spin_passes must be >= 0, got {spin_passes}")
        if base <= 0 or max_delay < base:
            raise ConfigError("need 0 < base <= max_delay")
        self.spin_passes = spin_passes
        self.base = base
        self.max_delay = max_delay
        self._misses = 0
        self.yields = 0

    def idle(self) -> float:
        """Record one empty pass; returns the delay to sleep (0.0 while
        still in the spin phase)."""
        self._misses += 1
        if self._misses <= self.spin_passes:
            return 0.0
        self.yields += 1
        exp = self._misses - self.spin_passes - 1
        return min(self.base * (2 ** exp), self.max_delay)

    def reset(self) -> None:
        self._misses = 0
