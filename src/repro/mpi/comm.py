"""CPU-free MPI-shaped communicators over put/get.

An :class:`MpiCommunicator` wires every rank pair with a msglib channel
(slot rings + credit words, §VI's small-footprint design) and compiles all
point-to-point traffic down to :mod:`repro.triggered` descriptor chains:

* **isend** stages the slot (envelope + payload + header) in the sender's
  staging ring and arms a one-put chain against the direction's *credit
  counter* at threshold ``seq - slots`` — flow control IS a triggered
  threshold, so the send fires the instant the receiver's cumulative credit
  proves a ring slot is free, with no host or GPU in the loop.
* **arrivals** are consumed by a NIC-resident engine (puts-with-counting on
  the ring window, exactly like the reliability layer's listeners): slots
  are drained in seq order, envelopes parsed, credits returned through the
  NIC-internal post path, and the matching engine fed.
* **rendezvous** (above the eager threshold) runs RTS → CTS → data+FIN: the
  data put is staged at ``isend`` time with a placeholder destination, the
  CTS patches the real NLA into the staged descriptor, and the FIN envelope
  rides the same in-order path as the data so its arrival proves delivery.

The result: after staging, the only BAR crossings a message can cost are
zero — every descriptor is fired by a counter threshold.  NIC hardware
counters (``wr_posts``, ``batch_doorbells``, ``trigger_doorbells``) verify
that claim in the benchmarks.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..cluster import Cluster
from ..core.msglib import Channel, ChannelEnd, payload_capacity, \
    wire_channels
from ..errors import MpiError
from ..extoll import NotifyFlags, RmaOp, RmaWorkRequest
from ..sim import SampledStats
from ..triggered import DescriptorChain, TriggerCounter, TriggeredUnit, \
    triggered_unit
from .envelope import ANY_SOURCE, ANY_TAG, ENVELOPE_BYTES, Envelope, MsgKind
from .match import Inbound, MatchEngine
from .request import MpiRequest


def _round8(n: int) -> int:
    return (n + 7) // 8 * 8


@dataclasses.dataclass(frozen=True)
class MpiConfig:
    """Layer tuning knobs.

    ``eager_threshold`` is the classic crossover: payloads at or below it
    ride inside the envelope slot; larger messages negotiate a rendezvous
    and travel as one raw put into a receiver-registered buffer.
    """

    eager_threshold: int = 128
    slot_size: int = 256
    slots: int = 16
    connectivity: str = "full"      # "full" | "ring"

    def __post_init__(self) -> None:
        if self.eager_threshold < 0:
            raise MpiError("eager_threshold must be >= 0")
        if self.payload_capacity < self.eager_threshold:
            raise MpiError(
                f"slot_size {self.slot_size} cannot carry the envelope plus "
                f"an eager payload of {self.eager_threshold} bytes")
        if self.connectivity not in ("full", "ring"):
            raise MpiError(f"bad connectivity {self.connectivity!r}")

    @property
    def payload_capacity(self) -> int:
        return payload_capacity(self.slot_size) - ENVELOPE_BYTES


class _SendWindow:
    """Sender-side state for one directed channel end: the credit counter
    the chains arm against, plus staged-chain bookkeeping."""

    def __init__(self, end: ChannelEnd, counter: TriggerCounter) -> None:
        self.end = end
        self.counter = counter        # cumulative credit, as ticks
        self.credit_seen = 0          # last cumulative credit value read
        self.stage_seq = 0            # last staged slot sequence number
        self.chains: Dict[int, DescriptorChain] = {}   # seq -> chain


class MpiCommunicator(SampledStats):
    """N ranks over one cluster, point-to-point compiled to chains."""

    GAUGES = ("pending_sends", "posted_depth", "unexpected_depth",
              "armed_chains", "rendezvous_open")

    def __init__(self, cluster: Cluster, config: Optional[MpiConfig] = None,
                 comm_id: int = 0, reliable: bool = False,
                 reliability_config=None) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config or MpiConfig()
        self.comm_id = comm_id
        self.size = len(cluster)
        self.reliable = reliable
        if self.size < 2:
            raise MpiError("a communicator needs at least 2 ranks")
        if self.size > 256:
            raise MpiError("rank ids must fit the 8-bit envelope field")
        self.units: List[TriggeredUnit] = [
            triggered_unit(node) for node in cluster.nodes]
        self._channels: Dict[Tuple[int, int], Channel] = {}
        self._windows: Dict[Tuple[int, int], _SendWindow] = {}
        for key, channel in wire_channels(
                cluster, self.config.connectivity,
                slot_size=self.config.slot_size, slots=self.config.slots,
                reliable=reliable, reliability_config=reliability_config,
                replay_flags=NotifyFlags.NONE):
            self._channels[key] = channel
            for end in (channel.a_to_b, channel.b_to_a):
                self._attach_direction(end)
        self.ranks = [MpiRank(self, r) for r in range(self.size)]

    # -- wiring --------------------------------------------------------------------
    def _attach_direction(self, end: ChannelEnd) -> None:
        """Hook one directed end: credit counting at the sender, slot
        draining at the receiver."""
        src_unit = self.units[end.src_node_id]
        counter = src_unit.counter(
            f"credit:{end.src_node_id}->{end.dst_node_id}")
        window = _SendWindow(end, counter)
        self._windows[(end.src_node_id, end.dst_node_id)] = window
        # Credit returns land in the sender's credit word; convert the
        # cumulative value into counter ticks (replays deliver the same
        # value again — the delta is then 0 and nothing ticks).
        def on_credit(_packet, window=window) -> None:
            value = window.end.read_credit()
            delta = value - window.credit_seen
            if delta > 0:
                window.credit_seen = value
                window.counter.add(delta)

        self.cluster.node(end.src_node_id).nic.rma.put_listeners.append(
            self._window_filter(end.credit_word_nla.base, 8, on_credit))
        # Arrivals: drain the ring in sequence order at the receiver.
        recv_node = self.cluster.node(end.dst_node_id)

        def on_arrival(_packet, end=end) -> None:
            self._drain(end)

        recv_node.nic.rma.put_listeners.append(
            self._window_filter(end.ring_nla.base, end.ring_nla.size,
                                on_arrival))

    @staticmethod
    def _window_filter(base: int, size: int, fn):
        def listener(packet) -> None:
            dst = packet.meta.get("dst_nla", -1)
            if base <= dst < base + size:
                fn(packet)
        return listener

    # -- topology ------------------------------------------------------------------
    def channel(self, a: int, b: int) -> Channel:
        try:
            return self._channels[(min(a, b), max(a, b))]
        except KeyError:
            raise MpiError(
                f"no channel between ranks {a} and {b} "
                f"(connectivity={self.config.connectivity!r})") from None

    def window(self, src: int, dst: int) -> _SendWindow:
        if src == dst:
            raise MpiError(f"rank {src} cannot message itself")
        self.channel(src, dst)  # raises with context if unwired
        return self._windows[(src, dst)]

    # -- the staged send path ------------------------------------------------------
    def _stage_slot(self, window: _SendWindow, envelope: Envelope,
                    payload: bytes) -> Tuple[int, RmaWorkRequest]:
        """Write [envelope | payload | header] into the next staging slot
        and return (seq, the put WR covering it)."""
        end = window.end
        if len(payload) > self.config.payload_capacity:
            raise MpiError(
                f"payload of {len(payload)} bytes exceeds slot capacity "
                f"{self.config.payload_capacity}")
        seq = window.stage_seq + 1
        # The staging slot for seq is shared with seq-slots; it is free only
        # once that older chain has fired (its descriptor read the slot).
        prior = window.chains.get(seq - end.slots)
        if prior is not None and not prior.completed.triggered:
            raise MpiError(
                f"send window {end.src_node_id}->{end.dst_node_id} "
                f"exhausted: more than {end.slots} staged sends in flight")
        window.stage_seq = seq
        window.chains.pop(seq - end.slots, None)
        dram = self.cluster.node(end.src_node_id).gpu.dram
        slot, padded, header_addr, header = end.slot_image(
            seq, envelope.encode() + payload)
        dram.write(slot, padded)
        dram.write_u64(header_addr, header)
        wr = end.slot_put(seq)
        trc = self.sim.tracer
        if trc.wants("causal"):
            trc.flow_event("stg", f"n{end.src_node_id}",
                           addr=end.slot_key(seq), seq=seq,
                           msg=envelope.kind.name.lower(),
                           bytes=len(payload))
        return seq, wr

    def _arm_send(self, window: _SendWindow, seq: int,
                  chain: DescriptorChain) -> None:
        """Fire the chain once credit admits ``seq`` into the remote ring."""
        end = window.end

        chain.completed.add_callback(lambda _ev: end.finish_send(seq))
        window.chains[seq] = chain
        # The arming counter counts credit deliveries into the sender's
        # credit word; name that address so the chain's causal `pst` can
        # carry the credit->send edge.
        chain.wait_hint = end.credit_key
        chain.arm(window.counter, end.credit_needed(seq))

    # -- the NIC-resident receive engine -------------------------------------------
    def _drain(self, end: ChannelEnd) -> None:
        """Consume every contiguous arrived slot of one inbound direction
        (inside the RMA unit's put-completion process, which a protocol
        error fails)."""
        dram = self.cluster.node(end.dst_node_id).gpu.dram
        rank = self.ranks[end.dst_node_id]
        while True:
            seq = end.consumed + 1
            _, body = end.read_slot(dram, seq)
            if body is None:
                return                      # out of order / duplicate / idle
            end.consumed = seq
            self._return_credit(end)
            trc = self.sim.tracer
            if trc.wants("causal"):
                # Emitted on the receiving RANK's actor (not the NIC): every
                # request completion this drain triggers happens
                # synchronously at this same instant, so actor program-order
                # links it to the rest of the rank's timeline.
                trc.flow_event("mrx", f"n{end.dst_node_id}",
                               addr=end.slot_key(seq), seq=seq,
                               bytes=len(body))
            envelope = Envelope.decode(body[:ENVELOPE_BYTES])
            if envelope.comm_id != self.comm_id:
                raise MpiError(
                    f"rank {rank.rank}: envelope for foreign communicator "
                    f"{envelope.comm_id}")
            rank._on_envelope(envelope, body[ENVELOPE_BYTES:])

    def _return_credit(self, end: ChannelEnd) -> None:
        """Put the cumulative credit back to the sender — NIC-internal post,
        zero MMIO, mirroring the reliability engine's ack path."""
        if not end.credit_due():
            return
        end.credit_staging_mem.write_u64(end.credit_staging.base, end.consumed)
        self.cluster.node(end.dst_node_id).nic.rma.post(end.credit_put())
        end.credits_returned = end.consumed

    # -- host-side conveniences ----------------------------------------------------
    def wait(self, *requests: MpiRequest, limit: float = 10.0) -> None:
        """Drive the simulator until every request completes, raising the
        first failure (host-side test harness idiom; sim processes yield
        ``request.done``)."""
        if requests:
            self.sim.run_until_complete(*(r.done for r in requests),
                                        limit=self.sim.now + limit)

    # -- uniform stats protocol ----------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        out = {
            "eager_sent": 0, "rndv_sent": 0, "matches": 0,
            "unexpected_arrivals": 0, "chains_fired": 0,
            "descriptors_fired": 0, "counter_ticks": 0,
            "host_wr_posts": 0, "batch_doorbells": 0, "trigger_doorbells": 0,
            "pending_sends": 0, "posted_depth": 0, "unexpected_depth": 0,
            "armed_chains": 0, "rendezvous_open": 0,
        }
        for rank in self.ranks:
            out["eager_sent"] += rank.eager_sent
            out["rndv_sent"] += rank.rndv_sent
            out["pending_sends"] += rank.pending_sends
            out["rendezvous_open"] += (len(rank._rndv_send)
                                       + len(rank._rndv_recv))
            for name in ("matches", "unexpected_arrivals"):
                out[name] += rank.matcher.snapshot()[name]
            out["posted_depth"] += len(rank.matcher.posted)
            out["unexpected_depth"] += len(rank.matcher.unexpected)
        for unit in self.units:
            out["chains_fired"] += unit.stats.chains_fired
            out["descriptors_fired"] += unit.stats.descriptors_fired
            out["counter_ticks"] += unit.stats.counter_ticks
            out["armed_chains"] += unit.armed_chains
        for node in self.cluster.nodes:
            out["host_wr_posts"] += node.nic.wr_posts
            out["batch_doorbells"] += node.nic.batch_doorbells
            out["trigger_doorbells"] += node.nic.trigger_doorbells
        return out



class MpiRank:
    """One rank's endpoint: isend/irecv plus the protocol state machines."""

    def __init__(self, comm: MpiCommunicator, rank: int) -> None:
        self.comm = comm
        self.rank = rank
        self.node = comm.cluster.node(rank)
        self.matcher = MatchEngine(rank)
        self.eager_sent = 0
        self.rndv_sent = 0
        self.pending_sends = 0
        self.coll_seq = 0     # collective-ordering counter (see collectives)
        # Sender side: op id -> (request, staged data WR, dst rank).
        self._rndv_send: Dict[int, Tuple[MpiRequest, RmaWorkRequest, int]] = {}
        # Receiver side: (src rank, op id) -> (request, buffer, size).
        self._rndv_recv: Dict[Tuple[int, int], Tuple[MpiRequest, object, int]] = {}

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def next(self) -> int:
        return (self.rank + 1) % self.size

    @property
    def prev(self) -> int:
        return (self.rank - 1) % self.size

    # -- API -----------------------------------------------------------------------
    def isend(self, dest: int, data: bytes, tag: int = 0) -> MpiRequest:
        """Nonblocking tagged send; the request completes when the message
        (eager) or its payload put (rendezvous) has been handed to the wire.
        """
        if dest == self.rank:
            raise MpiError(f"rank {self.rank} cannot send to itself")
        req = MpiRequest(self.comm.sim, "send", self.rank, source=dest,
                         tag=tag)
        self.pending_sends += 1
        req.done.add_callback(lambda _ev: self._send_done())
        trc = self.comm.sim.tracer
        if trc.wants("mpi"):
            trc.instant("mpi", "isend", track=f"mpi.rank{self.rank}",
                        dest=dest, tag=tag, bytes=len(data))
        if trc.wants("causal"):
            trc.flow_event("snd", f"n{self.rank}", dest=dest, tag=tag,
                           bytes=len(data))
        if len(data) <= self.comm.config.eager_threshold:
            self._send_eager(dest, data, tag, req)
        else:
            self._send_rts(dest, data, tag, req)
        return req

    def irecv(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> MpiRequest:
        """Nonblocking tagged receive; ``req.data`` carries the payload."""
        if source == self.rank:
            raise MpiError(f"rank {self.rank} cannot receive from itself")
        req = MpiRequest(self.comm.sim, "recv", self.rank, source=source,
                         tag=tag)
        trc = self.comm.sim.tracer
        if trc.wants("mpi"):
            trc.instant("mpi", "irecv", track=f"mpi.rank{self.rank}",
                        source=source, tag=tag)
        if trc.wants("causal"):
            trc.flow_event("rcv", f"n{self.rank}", source=source, tag=tag)
        msg = self.matcher.post(req)
        if msg is not None:
            self._deliver(req, msg)
        return req

    def _send_done(self) -> None:
        self.pending_sends -= 1

    def _complete_send(self, req: MpiRequest, addr) -> None:
        """Complete a send request when its chain finished, stamping the
        causal completion on this rank's actor."""
        trc = self.comm.sim.tracer
        if trc.wants("causal"):
            trc.flow_event("snd.done", f"n{self.rank}", addr=addr)
        req.complete()

    # -- eager ---------------------------------------------------------------------
    def _send_eager(self, dest: int, data: bytes, tag: int,
                    req: MpiRequest) -> None:
        window = self.comm.window(self.rank, dest)
        envelope = Envelope(kind=MsgKind.EAGER, src_rank=self.rank,
                            comm_id=self.comm.comm_id, tag=tag,
                            size=len(data))
        seq, wr = self.comm._stage_slot(window, envelope, data)
        unit = self.comm.units[self.rank]
        chain = unit.chain(f"r{self.rank}>r{dest}.eager{seq}").append(wr)
        chain.completed.add_callback(
            lambda _ev, addr=(wr.dst_node, wr.dst_nla):
            self._complete_send(req, addr))
        self.comm._arm_send(window, seq, chain)
        self.eager_sent += 1

    # -- rendezvous ----------------------------------------------------------------
    def _send_rts(self, dest: int, data: bytes, tag: int,
                  req: MpiRequest) -> None:
        window = self.comm.window(self.rank, dest)
        # Stage the payload once in a dedicated registered buffer; the put
        # descriptor waits (destination unknown) until the CTS patches it.
        buf = self.node.gpu_malloc(_round8(len(data)))
        self.node.gpu.dram.write(buf.base, data)
        nla = self.node.nic.register_memory(buf)
        data_wr = RmaWorkRequest(
            op=RmaOp.PUT, port=window.end.port_id, dst_node=dest,
            src_nla=nla.base, dst_nla=0, size=len(data),
            flags=NotifyFlags.NONE)
        self._rndv_send[req.id] = (req, data_wr, dest)
        envelope = Envelope(kind=MsgKind.RTS, src_rank=self.rank,
                            comm_id=self.comm.comm_id, tag=tag,
                            size=len(data), handle=req.id)
        seq, wr = self.comm._stage_slot(window, envelope, b"")
        unit = self.comm.units[self.rank]
        chain = unit.chain(f"r{self.rank}>r{dest}.rts{req.id}").append(wr)
        self.comm._arm_send(window, seq, chain)
        self.rndv_sent += 1

    def _on_cts(self, envelope: Envelope) -> None:
        """Sender side: the receiver's buffer is ready — patch the staged
        descriptor, chase it with the FIN envelope, fire both as one chain.
        """
        entry = self._rndv_send.pop(envelope.handle, None)
        if entry is None:
            raise MpiError(
                f"rank {self.rank}: CTS for unknown op {envelope.handle}")
        req, data_wr, dest = entry
        window = self.comm.window(self.rank, dest)
        fin = Envelope(kind=MsgKind.FIN, src_rank=self.rank,
                       comm_id=self.comm.comm_id, tag=envelope.tag,
                       handle=envelope.handle)
        seq, fin_wr = self.comm._stage_slot(window, fin, b"")
        unit = self.comm.units[self.rank]
        chain = unit.chain(f"r{self.rank}>r{dest}.data{envelope.handle}")
        chain.append(data_wr).append(fin_wr)
        # EXTOLL keeps same-path puts in order: FIN lands after the payload.
        chain.replace_wr(0, dst_nla=envelope.size)
        trc = self.comm.sim.tracer
        if trc.wants("causal"):
            # The rendezvous payload is read straight from the registered
            # user buffer — no slot staging — so its WQE-generation moment
            # (the causal ``stg`` its chain-fired ``pst`` walks back to) is
            # the descriptor patch here, on CTS receipt.
            trc.flow_event("stg", f"n{self.rank}",
                           addr=(dest, envelope.size), msg="data",
                           bytes=data_wr.size)
        chain.completed.add_callback(
            lambda _ev, addr=(fin_wr.dst_node, fin_wr.dst_nla):
            self._complete_send(req, addr))
        self.comm._arm_send(window, seq, chain)

    def _on_fin(self, envelope: Envelope) -> None:
        """Receiver side: the payload put has landed (it preceded this FIN
        on the same ordered path) — read it out and complete the receive."""
        key = (envelope.src_rank, envelope.handle)
        entry = self._rndv_recv.pop(key, None)
        if entry is None:
            raise MpiError(
                f"rank {self.rank}: FIN for unknown op {envelope.handle} "
                f"from rank {envelope.src_rank}")
        req, buf, size = entry
        data = bytes(self.node.gpu.dram.read(buf.base, size))
        req.complete(data, source=envelope.src_rank, tag=envelope.tag)

    def _start_rendezvous_recv(self, req: MpiRequest,
                               envelope: Envelope) -> None:
        """Matched an RTS: register a landing buffer and send the CTS."""
        buf = self.node.gpu_malloc(_round8(envelope.size))
        nla = self.node.nic.register_memory(buf)
        self._rndv_recv[(envelope.src_rank, envelope.handle)] = (
            req, buf, envelope.size)
        cts = Envelope(kind=MsgKind.CTS, src_rank=self.rank,
                       comm_id=self.comm.comm_id, tag=envelope.tag,
                       size=nla.base, handle=envelope.handle)
        window = self.comm.window(self.rank, envelope.src_rank)
        seq, wr = self.comm._stage_slot(window, cts, b"")
        unit = self.comm.units[self.rank]
        chain = unit.chain(
            f"r{self.rank}>r{envelope.src_rank}.cts{envelope.handle}")
        chain.append(wr)
        self.comm._arm_send(window, seq, chain)

    # -- arrival dispatch ----------------------------------------------------------
    def _on_envelope(self, envelope: Envelope, payload: bytes) -> None:
        trc = self.comm.sim.tracer
        if trc.wants("mpi"):
            trc.instant("mpi", envelope.kind.name.lower(),
                        track=f"mpi.rank{self.rank}",
                        source=envelope.src_rank, tag=envelope.tag)
        if envelope.kind is MsgKind.CTS:
            self._on_cts(envelope)
            return
        if envelope.kind is MsgKind.FIN:
            self._on_fin(envelope)
            return
        # EAGER and RTS go through matching.
        req = self.matcher.incoming(Inbound(envelope, payload))
        if req is not None:
            self._deliver(req, Inbound(envelope, payload))

    def _deliver(self, req: MpiRequest, msg: Inbound) -> None:
        if msg.envelope.kind is MsgKind.EAGER:
            req.complete(msg.payload, source=msg.src_rank,
                         tag=msg.tag)
        else:  # RTS
            self._start_rendezvous_recv(req, msg.envelope)
