"""The fault injector: turns a :class:`~repro.faults.FaultPlan` into live
link state on a concrete :class:`~repro.network.NetworkFabric`.

Per faulted link the injector installs a :class:`LinkFaultState` as
``NetLink.faults``, which :meth:`repro.network.NetLink.send` consults once
per packet after serialization.  Links whose config
:attr:`~repro.faults.LinkFaults.is_null` get NOTHING attached, so
``FaultPlan.none()`` leaves every link exactly as it was: the zero-cost
path, mirroring :class:`~repro.sim.trace.NullTracer`.

Observability: every drop and corruption emits a ``fault`` trace instant
and bumps per-link counters, so the Chrome-trace exporter shows the faults
alongside the traffic they hit.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..errors import ConfigError
from ..network import NetLink, NetworkFabric, Packet
from ..sim import SampledStats, Simulator
from .plan import FaultPlan, LinkFaults


class LinkFaultState:
    """Live fault state of one link: its RNG stream and its drop and
    corruption counters."""

    __slots__ = ("sim", "link", "cfg", "rng", "drops", "corruptions")

    def __init__(self, sim: Simulator, link: NetLink, cfg: LinkFaults,
                 rng: random.Random) -> None:
        self.sim = sim
        self.link = link
        self.cfg = cfg
        self.rng = rng
        self.drops = 0          # probabilistic losses
        self.corruptions = 0

    # -- packet-level decisions (called from NetLink.send) --------------------
    def filter_tx(self, packet: Packet) -> Optional[Packet]:
        """Decide one packet's fate after it left the NIC.

        Returns ``None`` to drop it, else the packet to deliver.  A
        corrupted packet is a *clone* with flipped payload bytes and the
        original CRC sealed in, so retransmission copies held upstream stay
        pristine.
        """
        cfg = self.cfg
        rng = self.rng
        if cfg.loss and rng.random() < cfg.loss:
            self.drops += 1
            self._record("drop:loss", packet)
            return None
        if cfg.corrupt and rng.random() < cfg.corrupt:
            return self._corrupt(packet)
        return packet

    def _corrupt(self, packet: Packet) -> Packet:
        """Seal the true CRC, then flip payload bytes in a clone."""
        self.corruptions += 1
        self._record("corrupt", packet)
        true_crc = packet.compute_checksum()
        if packet.payload:
            mutated = bytearray(bytes(packet.payload))
            for _ in range(self.rng.randint(1, min(3, len(mutated)))):
                idx = self.rng.randrange(len(mutated))
                mutated[idx] ^= self.rng.randint(1, 255)
            bad = packet.clone(next(self.sim.packet_seq),
                               payload=bytes(mutated))
            bad.checksum = true_crc
            # A vanishingly unlikely no-op flip still must corrupt.
            if not bad.is_corrupt:
                bad.checksum = true_crc ^ 0x5A5A5A5A
        else:
            # Header-only packets: poison the CRC itself.
            bad = packet.clone(next(self.sim.packet_seq))
            bad.checksum = true_crc ^ 0x5A5A5A5A
        return bad

    def _record(self, what: str, packet: Packet) -> None:
        trc = self.sim.tracer
        if trc.enabled:
            trc.instant("fault", what, track=self.link.name,
                        seq=packet.seq, kind=packet.kind.value)
            trc.metrics.counter(f"fault.{self.link.name}.{what}").inc()


class FaultInjector(SampledStats):
    """Attaches a :class:`FaultPlan` to a cluster's network fabric."""

    def __init__(self, sim: Simulator, plan: Optional[FaultPlan] = None) -> None:
        self.sim = sim
        self.plan = plan or FaultPlan.none()
        self.states: Dict[str, LinkFaultState] = {}

    # -- wiring ---------------------------------------------------------------
    def attach(self, fabric: NetworkFabric) -> "FaultInjector":
        """Install fault state on every fabric link the plan faults.  A null
        plan (or all-null link configs) installs nothing at all."""
        for (a, b), link in sorted(fabric.links().items()):
            self.attach_link(link, a, b)
        return self

    def attach_link(self, link: NetLink, node_a: int, node_b: int) -> None:
        cfg = self.plan.for_link(node_a, node_b)
        if cfg.is_null:
            return
        if link.faults is not None:
            raise ConfigError(f"{link.name} already has fault state")
        state = LinkFaultState(
            self.sim, link, cfg,
            self.plan.link_rng(self.sim.seed, link.name))
        link.faults = state
        self.states[link.name] = state

    # -- aggregate counters ---------------------------------------------------
    @property
    def drops(self) -> int:
        return sum(s.drops for s in self.states.values())

    @property
    def corruptions(self) -> int:
        return sum(s.corruptions for s in self.states.values())

    # -- uniform stats protocol -------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Aggregate totals in the uniform ``snapshot()/diff()`` shape the
        telemetry sampler polls: flat, monotonic ``{name: int}``."""
        return {"drops": self.drops, "corruptions": self.corruptions}
