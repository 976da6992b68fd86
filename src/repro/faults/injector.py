"""The fault injector: turns a :class:`~repro.faults.FaultPlan` into live
link state on a concrete :class:`~repro.network.NetworkFabric`.

Per faulted link the injector installs a :class:`LinkFaultState` as
``NetLink.faults`` — consulted by :meth:`repro.network.NetLink.send` after
serialization — and spawns the outage schedules (one-shot windows and
periodic flaps) as simulator processes.  Links whose config
:attr:`~repro.faults.LinkFaults.is_null` get NOTHING attached, so
``FaultPlan.none()`` leaves every link exactly as it was: the zero-cost
path, mirroring :class:`~repro.sim.trace.NullTracer`.

Observability: every drop/corruption/delay emits a ``fault`` trace instant
and bumps per-link counters; link outages open/close ``fault``-category
``link-down`` spans and record 0/1 transitions into a
:class:`~repro.obs.metrics.Timeline` metric, so the Chrome-trace and
timeline exporters show the fault windows alongside the traffic they hit.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from ..errors import ConfigError
from ..network import NetLink, NetworkFabric, Packet
from ..sim import NULL_SPAN, SampledStats, Simulator
from .plan import FaultPlan, LinkFaults


class LinkFaultState:
    """Live fault state of one link: its RNG stream, up/down status, and
    drop/corruption/delay counters."""

    __slots__ = ("sim", "link", "cfg", "rng", "down_depth", "drops",
                 "corruptions", "delays", "down_drops", "transitions",
                 "_down_span")

    def __init__(self, sim: Simulator, link: NetLink, cfg: LinkFaults,
                 rng: random.Random) -> None:
        self.sim = sim
        self.link = link
        self.cfg = cfg
        self.rng = rng
        # Overlapping outage schedules nest: the link is up iff depth == 0.
        self.down_depth = 0
        self.drops = 0          # probabilistic losses
        self.corruptions = 0
        self.delays = 0
        self.down_drops = 0     # packets sent into a dead cable
        self.transitions = 0    # up<->down edges
        self._down_span = None

    @property
    def up(self) -> bool:
        return self.down_depth == 0

    # -- packet-level decisions (called from NetLink.send) --------------------
    def filter_tx(self, packet: Packet) -> Optional[Tuple[Packet, float]]:
        """Decide one packet's fate after it left the NIC.

        Returns ``None`` to drop it, else ``(packet, extra_delay)`` where a
        positive ``extra_delay`` also releases the packet from the link's
        in-order delivery chain (reordering).  A corrupted packet is a
        *clone* with flipped payload bytes and the original CRC sealed in,
        so retransmission copies held upstream stay pristine.
        """
        if self.down_depth:
            self.down_drops += 1
            self._record("drop:link-down", packet)
            return None
        cfg = self.cfg
        rng = self.rng
        if cfg.loss and rng.random() < cfg.loss:
            self.drops += 1
            self._record("drop:loss", packet)
            return None
        if cfg.corrupt and rng.random() < cfg.corrupt:
            packet = self._corrupt(packet)
        extra = 0.0
        if cfg.delay_prob and rng.random() < cfg.delay_prob:
            extra = rng.uniform(0.25 * cfg.delay_max, cfg.delay_max)
            self.delays += 1
            self._record("delay", packet, extra=extra)
        return packet, extra

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

    def _record(self, what: str, packet: Packet, **attrs) -> None:
        trc = self.sim.tracer
        if trc.enabled:
            trc.instant("fault", what, track=self.link.name,
                        seq=packet.seq, kind=packet.kind.value, **attrs)
            trc.metrics.counter(f"fault.{self.link.name}.{what}").inc()

    # -- outage transitions (called by the injector's schedule processes) -----
    def take_down(self) -> None:
        self.down_depth += 1
        if self.down_depth == 1:
            self.transitions += 1
            trc = self.sim.tracer
            if trc.enabled:
                self._down_span = trc.begin("fault", "link-down",
                                            track=self.link.name)
                trc.metrics.timeline(
                    f"fault.{self.link.name}.up").record(self.sim.now, 0)

    def bring_up(self) -> None:
        if self.down_depth <= 0:
            raise ConfigError(f"{self.link.name}: bring_up without take_down")
        self.down_depth -= 1
        if self.down_depth == 0:
            self.transitions += 1
            trc = self.sim.tracer
            if trc.enabled:
                (self._down_span or NULL_SPAN).end()
                self._down_span = None
                trc.metrics.timeline(
                    f"fault.{self.link.name}.up").record(self.sim.now, 1)

    def snapshot(self) -> Dict[str, int]:
        """Uniform stats protocol (counters plus the ``up`` gauge)."""
        return {"drops": self.drops, "corruptions": self.corruptions,
                "delays": self.delays, "down_drops": self.down_drops,
                "transitions": self.transitions, "up": int(self.up)}


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
        if cfg.down_windows:
            self.sim.process(self._window_schedule(state),
                             name=f"faults.{link.name}.windows")
        if cfg.flap_count:
            self.sim.process(self._flap_schedule(state),
                             name=f"faults.{link.name}.flap")

    # -- outage schedules -----------------------------------------------------
    def _window_schedule(self, state: LinkFaultState):
        for start, duration in sorted(state.cfg.down_windows):
            gap = start - self.sim.now
            if gap > 0:
                yield self.sim.timeout(gap)
            state.take_down()
            yield self.sim.timeout(duration)
            state.bring_up()

    def _flap_schedule(self, state: LinkFaultState):
        cfg = state.cfg
        if cfg.flap_start > 0:
            yield self.sim.timeout(cfg.flap_start)
        for _cycle in range(cfg.flap_count):
            flap = cfg.flap_prob >= 1.0 or state.rng.random() < cfg.flap_prob
            if flap:
                state.take_down()
                yield self.sim.timeout(cfg.flap_downtime)
                state.bring_up()
                yield self.sim.timeout(cfg.flap_period - cfg.flap_downtime)
            else:
                yield self.sim.timeout(cfg.flap_period)

    # -- aggregate counters ---------------------------------------------------
    def _total(self, attr: str) -> int:
        return sum(getattr(s, attr) for s in self.states.values())

    @property
    def drops(self) -> int:
        return self._total("drops")

    @property
    def corruptions(self) -> int:
        return self._total("corruptions")

    @property
    def delays(self) -> int:
        return self._total("delays")

    @property
    def down_drops(self) -> int:
        return self._total("down_drops")

    @property
    def transitions(self) -> int:
        return self._total("transitions")

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Per-link counter snapshot (for reports and reconciliation)."""
        return {name: {"drops": s.drops, "corruptions": s.corruptions,
                       "delays": s.delays, "down_drops": s.down_drops,
                       "transitions": s.transitions}
                for name, s in sorted(self.states.items())}

    # -- uniform stats protocol -------------------------------------------------
    GAUGES = ("links_down",)

    def snapshot(self) -> Dict[str, int]:
        """Aggregate totals in the uniform ``snapshot()/diff()`` shape the
        telemetry sampler polls: flat ``{name: int}``, counters monotonic,
        gauges (``links_down``) reporting the current level."""
        return {"drops": self.drops, "corruptions": self.corruptions,
                "delays": self.delays, "down_drops": self.down_drops,
                "transitions": self.transitions,
                "links_down": sum(0 if s.up else 1
                                  for s in self.states.values())}

