"""Point-to-point network links with in-order delivery.

One :class:`NetLink` direction serializes packets at the link bandwidth and
delivers them, after the propagation latency, into the receiver's inbox
(:class:`~repro.sim.Store`) in exactly the order they were sent — both
EXTOLL and InfiniBand RC guarantee in-order delivery, which the paper's
``pollOnGPU`` / poll-last-element trick depends on (§V-B1).

Fault injection: a link optionally carries a
:class:`~repro.faults.injector.LinkFaultState` in ``self.faults``
(installed by :class:`~repro.faults.FaultInjector`; ``None`` by default,
costing one attribute check).  The state is consulted once per packet
after serialization and may drop it (loss or a downed link), substitute a
corrupted clone, or add extra delay — delayed packets skip the in-order
delivery chain, so they reorder against their neighbors exactly like a
stray packet taking a slow path through a real switch.

Credit-based flow control: when :attr:`NetLinkConfig.credits` is set, the
link carries a :class:`FlowState` in ``self.flow`` modelling the finite
receive buffer of the far side — ``credits`` slots per virtual channel
per direction.  A sender acquires one credit *before* it may start
serializing; the credit is returned only when the receiver consumes the
packet (an endpoint draining its inbox, or a router that has finished
relaying it onward).  A hop that is out of credits therefore blocks its
upstream pump in simulated time, which in turn stops draining *its*
input link — congestion propagates backward exactly like real link-level
flow control.  ``credits=None`` (the default) keeps the infinite-buffer
fabric at the cost of one attribute check per send, mirroring the
``faults`` hook: disabled flow control is bit-identical to the seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..errors import NetworkError
from ..sim import Event, NULL_SPAN, Resource, Simulator, Store, Timeout
from ..sim.event import PROCESSED
from ..units import GB_PER_S, NS
from .packet import Packet

#: Per-hop relay cost of a store-and-forward node (header decode + route
#: lookup + buffer hand-off), paid on top of the next link's serialization.
#: Promoted from a module constant in :mod:`repro.network.fabric` to a
#: per-link :class:`NetLinkConfig` field so switch classes (core vs leaf)
#: can carry different relay costs; the default preserves prior behavior.
FORWARD_TIME = 120 * NS


@dataclass(frozen=True)
class NetLinkConfig:
    bandwidth: float = 5.0 * GB_PER_S   # bytes/second per direction
    latency: float = 550 * NS           # wire + switch traversal, one way
    #: Store-and-forward relay cost charged by a router forwarding ONTO
    #: this link (when the router has no per-node override).
    forward_time: float = FORWARD_TIME
    #: Receive-buffer credits per virtual channel per direction; ``None``
    #: disables flow control entirely (infinite buffering, zero cost).
    credits: Optional[int] = None
    #: Virtual channels (only meaningful with ``credits``); packets pick a
    #: VC via ``packet.meta["vc"]``, defaulting to 0.
    vcs: int = 1

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency < 0:
            raise NetworkError("bad link parameters")
        if self.forward_time < 0:
            raise NetworkError("forward_time must be >= 0")
        if self.credits is not None and self.credits < 1:
            raise NetworkError("credits must be >= 1 (or None to disable)")
        if self.vcs < 1:
            raise NetworkError("vcs must be >= 1")


class FlowState:
    """Per-direction, per-VC credit pools for one link.

    ``acquire`` is the sender-side gate: it either takes a credit
    immediately (returning ``None`` — no event, no heap traffic on the
    uncontended path) or returns a pending :class:`~repro.sim.Event` the
    sender must yield on.  ``release`` hands the credit to the oldest
    waiter (FIFO per VC) or returns it to the pool.
    """

    __slots__ = ("link", "credits", "vcs", "_avail", "_waiters",
                 "stalls", "stall_time")

    def __init__(self, link: "NetLink") -> None:
        cfg = link.config
        self.link = link
        self.credits = cfg.credits
        self.vcs = cfg.vcs
        self._avail = [[cfg.credits] * cfg.vcs, [cfg.credits] * cfg.vcs]
        self._waiters = [[deque() for _ in range(cfg.vcs)],
                         [deque() for _ in range(cfg.vcs)]]
        self.stalls = [0, 0]            # sends that had to wait, per dir
        self.stall_time = [0.0, 0.0]    # total sim-time spent waiting

    def acquire(self, direction: int, vc: int) -> Optional[Event]:
        if not 0 <= vc < self.vcs:
            raise NetworkError(
                f"{self.link.name}: packet asks for VC {vc} but the link "
                f"has {self.vcs}")
        avail = self._avail[direction]
        if avail[vc] > 0:
            avail[vc] -= 1
            return None
        ev = Event(self.link.sim, name=f"{self.link.name}.crd{direction}v{vc}")
        self._waiters[direction][vc].append(ev)
        return ev

    def release(self, direction: int, vc: int) -> None:
        waiters = self._waiters[direction][vc]
        if waiters:
            # Hand the credit straight to the oldest waiter; occupancy is
            # unchanged (the slot moves from one packet to the next).
            waiters.popleft().succeed()
            return
        self._avail[direction][vc] += 1
        if self._avail[direction][vc] > self.credits:
            raise NetworkError(
                f"{self.link.name}: credit over-release on dir {direction} "
                f"vc {vc}")

    def in_flight(self, direction: int) -> int:
        """Credits currently held by in-flight packets, this direction."""
        return self.credits * self.vcs - sum(self._avail[direction])

    def waiting(self, direction: int) -> int:
        return sum(len(q) for q in self._waiters[direction])

    @property
    def total_stalls(self) -> int:
        return self.stalls[0] + self.stalls[1]

    @property
    def total_stall_time(self) -> float:
        return self.stall_time[0] + self.stall_time[1]


class Delivery(Event):
    """One packet's trip from the far end of the wire into the inbox.

    It pushes the four events a delivery process would, at the same
    turns: a start event, the ``delay`` timeout, the inbox ``put``, and
    itself, succeeding once that put is processed.  A chained delivery
    whose timeout fires while ``prev`` (the delivery sent before it) is
    still unprocessed waits for ``prev`` before it puts, so packets land
    in the order they were sent.
    """

    __slots__ = ("link", "side", "packet", "prev", "delay", "label")

    def __init__(self, link: "NetLink", side: int, packet: Packet,
                 prev: Optional["Delivery"], delay: float, label: str) -> None:
        sim = link.sim
        super().__init__(sim, ("{}.{}{}", link.name, label, packet.seq))
        self.link = link
        self.side = side
        self.packet = packet
        self.prev = prev
        self.delay = delay
        self.label = label
        start = Event(sim, ("start:{.name}", self))
        start.callbacks.append(self._start)
        start.succeed()

    def _start(self, _start: Event) -> None:
        Timeout(self.sim, self.delay).callbacks.append(self._arrive)

    def _arrive(self, _trigger: Event) -> None:
        prev = self.prev
        if prev is not None:
            self.prev = None    # keep no more of the chain than is in flight
            if prev._state is not PROCESSED:
                prev.callbacks.append(self._arrive)
                return
        link = self.link
        trc = self.sim.tracer
        if trc.enabled:
            trc.instant("net", f"{self.label}:{self.packet.kind.value}",
                        track=f"{link.name}.rx{1 - self.side}",
                        seq=self.packet.seq)
        link.inbox[1 - self.side].put(self.packet).callbacks.append(
            self._done)

    def _done(self, _put: Event) -> None:
        self.succeed()


class NetLink:
    """A full-duplex cable between two NICs (endpoints 0 and 1)."""

    def __init__(self, sim: Simulator, name: str = "netlink",
                 config: NetLinkConfig | None = None) -> None:
        self.sim = sim
        self.name = name
        self.config = config or NetLinkConfig()
        # Per-direction serializer + receiver inbox.
        self._tx = [Resource(sim, 1, f"{name}.tx0"), Resource(sim, 1, f"{name}.tx1")]
        self.inbox = [Store(sim, name=f"{name}.rx0"), Store(sim, name=f"{name}.rx1")]
        self.packets_sent = [0, 0]
        self.bytes_sent = [0, 0]
        # In-order delivery despite concurrent senders: a delivery chain per
        # direction (each Delivery waits on the previous one).
        self._last_delivery = [None, None]
        # Fault-injection state; None (the default) keeps the reliable
        # fabric of the paper at the cost of one attribute check per send.
        self.faults = None
        # Credit-based flow control; None unless the config asks for it.
        self.flow = FlowState(self) if self.config.credits else None
        # Causal actor label of each side's sender (e.g. "n3", "fab.s17"),
        # set by fabric builders so credit stalls can be blamed.
        self.actor_labels: list = [None, None]

    def send(self, endpoint: int, packet: Packet):
        """Process fragment: transmit ``packet`` from ``endpoint``; returns
        once the last byte has left the NIC (delivery happens later)."""
        if endpoint not in (0, 1):
            raise NetworkError(f"bad endpoint {endpoint}")
        trc = self.sim.tracer
        flow = self.flow
        vc = 0
        if flow is not None:
            vc = packet.meta.get("vc", 0)
            gate = flow.acquire(endpoint, vc)
            if gate is not None:
                stall_from = self.sim.now
                yield gate
                stalled = self.sim.now - stall_from
                flow.stalls[endpoint] += 1
                flow.stall_time[endpoint] += stalled
                if trc.enabled:
                    trc.metrics.counter("fabric.credit_stalls").inc()
                    if trc.wants("causal"):
                        caddr = packet.meta.get("caddr")
                        actor = self.actor_labels[endpoint]
                        if caddr is not None and actor is not None:
                            trc.flow_event("hop.crd", actor, addr=caddr,
                                           link=self.name, vc=vc,
                                           stalled=stalled)
        tx = self._tx[endpoint]
        yield tx.acquire()
        # Span covers the exclusive serialization window of this direction.
        span = (trc.begin("net", packet.kind.value,
                          track=f"{self.name}.tx{endpoint}",
                          seq=packet.seq, bytes=packet.wire_bytes)
                if trc.enabled else NULL_SPAN)
        try:
            yield self.sim.timeout(packet.wire_bytes / self.config.bandwidth)
        finally:
            span.end()
            tx.release()
        self.packets_sent[endpoint] += 1
        self.bytes_sent[endpoint] += packet.wire_bytes
        if trc.enabled:
            trc.metrics.counter("net.packets").inc()
            trc.metrics.counter("net.wire_bytes").inc(packet.wire_bytes)
        extra_delay = 0.0
        if self.faults is not None:
            verdict = self.faults.filter_tx(packet)
            if verdict is None:
                if flow is not None:
                    flow.release(endpoint, vc)  # dropped: slot never filled
                return                      # dropped: no delivery at all
            packet, extra_delay = verdict
        if extra_delay > 0.0:
            # Fault-delayed: off the in-order chain, free to reorder.
            Delivery(self, endpoint, packet, None,
                     self.config.latency + extra_delay, "deliver-late")
        else:
            # Chain delivery so packets arrive strictly in send-completion
            # order.
            self._last_delivery[endpoint] = Delivery(
                self, endpoint, packet, self._last_delivery[endpoint],
                self.config.latency, "deliver")

    def release_credit(self, consumer_side: int, packet: Packet,
                       vc: Optional[int] = None) -> None:
        """Return the credit a packet held on its way INTO ``consumer_side``
        (i.e. the credit its sender acquired on the opposite direction).
        ``vc`` must be the VC the packet ARRIVED on when a router has
        already re-stamped ``meta["vc"]`` for its next hop.  No-op when
        flow control is disabled."""
        if self.flow is not None:
            if vc is None:
                vc = packet.meta.get("vc", 0)
            self.flow.release(1 - consumer_side, vc)
