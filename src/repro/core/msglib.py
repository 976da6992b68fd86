"""A GPU-resident two-sided messaging layer over put/get — the paper's
stated future work ("we gear to work towards GPU communication libraries
that meet the previously stated claims", §VIII).

Design, following the §VI claims:

* **claim 1 (small footprint)** — per channel direction: a ring of ``slots``
  fixed-size slots in the *receiver's* device memory plus one 8-byte credit
  word in the *sender's* device memory.  No notification queues at all.
* **claim 2 (thread-collaborative)** — descriptors are posted with the wide
  store of :mod:`repro.core.future`.
* **claim 3 (minimal PCIe control traffic)** — all polling (message arrival,
  credit return) happens in device memory through the L2; the only PCIe
  traffic a message costs is its payload put and, every ``slots/2``
  messages, one 8-byte credit-return put.

Wire format of a slot: ``payload .. | header:u64`` where
``header = (seq << 16) | length``.  EXTOLL delivers puts in order, so the
header landing implies the payload landed (§V-B1's last-element argument).
Messages up to ``slot_size - 8`` bytes travel in one slot.

This module is the protocol's one definition: the header, the slot and
credit puts, the credit gate and cadence, the causal slot key and the
channel wiring live here and on :class:`ChannelEnd`.  Its drivers — GPU
threads (below), host threads (:mod:`repro.collectives.comm`), NIC-fired
descriptor chains (:mod:`repro.mpi.comm`) and the retransmission engine
(:mod:`repro.faults.reliability`) — keep only their memory accesses and
their posts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, TYPE_CHECKING

from ..cluster import Cluster
from ..errors import BenchmarkError
from ..extoll import NotifyFlags, RmaOp, RmaWorkRequest
from ..gpu import ThreadCtx
from ..memory import AddressRange
from .future import gpu_rma_post_wide

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..extoll import RmaPort
    from ..memory import Memory
    from ..node import Node

_HEADER_BYTES = 8
_SEQ_SHIFT = 16
_LEN_MASK = (1 << _SEQ_SHIFT) - 1


def encode_header(seq: int, length: int) -> int:
    """The header word that closes the slot of message ``seq``."""
    return (seq << _SEQ_SHIFT) | length


def decode_header(header: int) -> Tuple[int, int]:
    """``(seq, length)`` of a header word; seq 0 is a never-written slot."""
    return header >> _SEQ_SHIFT, header & _LEN_MASK


def payload_capacity(slot_size: int) -> int:
    """Bytes a slot of ``slot_size`` carries in front of its header."""
    return slot_size - _HEADER_BYTES


@dataclass
class ChannelEnd:
    """One direction of a channel, as seen by its *sender*.

    The receiver uses the same object through :func:`gpu_recv`; device code
    on each node only ever touches addresses local to (or mapped into) its
    own GPU.
    """

    # Topology.
    src_node_id: int
    dst_node_id: int
    port_id: int
    page_addr: int                 # sender-side BAR requester page
    # Sender-local resources.
    staging: AddressRange          # device memory the payload is built in
    staging_nla: AddressRange
    credit_word: AddressRange      # device memory; receiver puts credits here
    credit_word_nla: AddressRange
    # Receiver-local resources (NLAs are what the sender addresses).
    ring: AddressRange             # device memory ring in the receiver GPU
    ring_nla: AddressRange
    slot_size: int
    slots: int
    # Receiver-side scratch for credit-return puts (in the receiver's GPU,
    # i.e. local to whoever calls gpu_recv on this end's messages).
    credit_staging: AddressRange = None
    credit_staging_nla: AddressRange = None
    # The memories holding the credit word (sender's) and the credit
    # staging word (receiver's): device DRAM, or host DRAM when the
    # channel's control state lives with the host threads.
    credit_mem: Optional["Memory"] = None
    credit_staging_mem: Optional["Memory"] = None
    # Progress counters (software state).
    next_seq: int = 1              # sender: next message sequence number
    consumed: int = 0              # receiver: messages taken out of the ring
    credits_returned: int = 0      # receiver: last credit value put back
    # Flow control cadence: credits go back every this-many consumed
    # messages.  slots//2 keeps control traffic minimal (§VI-3); reliable
    # channels use 1 so the credit word doubles as a cumulative ACK.
    credit_interval: int = 0       # 0 = default slots//2 cadence
    # Reliability engine (repro.faults.reliability.ChannelReliability) for
    # this direction, or None on the default lossless fabric.
    reliability: Optional[object] = None
    # The sender-side RMA port object (its notification queues serve the
    # notified send/recv variants used by repro.collectives).
    port: Optional["RmaPort"] = None

    @property
    def payload_capacity(self) -> int:
        return payload_capacity(self.slot_size)

    def slot_offset(self, seq: int) -> int:
        return ((seq - 1) % self.slots) * self.slot_size

    def _header_of(self, slot: int) -> int:
        return slot + self.slot_size - _HEADER_BYTES

    # -- addresses ---------------------------------------------------------------
    def slot_key(self, seq: int) -> Tuple[int, int]:
        """Causal address key of message ``seq``: (receiver, slot NLA).
        The sender, the NICs and the receiver each stamp it on their flow
        events, so the critical-path walk joins their hops."""
        return (self.dst_node_id, self.ring_nla.base + self.slot_offset(seq))

    @property
    def credit_key(self) -> Tuple[int, int]:
        """Causal address key of the credit word a gated send waits on."""
        return (self.src_node_id, self.credit_word_nla.base)

    def slot_image(self, seq: int, body: bytes) -> Tuple[int, bytes, int, int]:
        """What staging message ``seq`` writes into the sender's staging
        area: ``(slot address, body padded to 8-byte words, header
        address, header)``."""
        slot = self.staging.base + self.slot_offset(seq)
        return (slot, body + bytes(-len(body) % 8), self._header_of(slot),
                encode_header(seq, len(body)))

    def ring_slot(self, seq: int) -> Tuple[int, int]:
        """``(slot address, header address)`` of message ``seq`` in the
        receiver's ring."""
        slot = self.ring.base + self.slot_offset(seq)
        return slot, self._header_of(slot)

    # -- model-level reads (host threads, NIC engines) ---------------------------
    def read_slot(self, mem: "Memory",
                  seq: int) -> Tuple[int, Optional[bytes]]:
        """Read ring slot ``seq`` out of the receiver's memory ``mem``:
        ``(the seq its header carries, its payload)``.  The payload is
        ``None`` while the header carries another seq: message ``seq`` has
        not landed."""
        slot, header_addr = self.ring_slot(seq)
        carried, length = decode_header(mem.read_u64(header_addr))
        if carried != seq:
            return carried, None
        return carried, bytes(mem.read(slot, length))

    def landed_seq(self, mem: "Memory", dst_nla: int) -> int:
        """The seq in the header of the ring slot a put to ``dst_nla``
        landed in, read out of the receiver's memory ``mem``."""
        slot = self.ring.base + (dst_nla - self.ring_nla.base)
        return decode_header(mem.read_u64(self._header_of(slot)))[0]

    def read_credit(self) -> int:
        """The credit word: the receiver's cumulative consumed count."""
        return self.credit_mem.read_u64(self.credit_word.base)

    # -- the flow-control rules --------------------------------------------------
    def credit_needed(self, seq: int) -> int:
        """The credit message ``seq`` waits for: with at most ``slots``
        messages in flight, ``seq`` needs ``seq - slots`` consumed; 0 means
        it needs none."""
        return max(0, seq - self.slots)

    def credit_due(self) -> bool:
        """Whether the receiver owes the sender a credit return: one per
        ``credit_interval`` consumed messages (default half the ring)."""
        return (self.consumed - self.credits_returned
                >= (self.credit_interval or max(1, self.slots // 2)))

    # -- the two puts ------------------------------------------------------------
    def slot_put(self, seq: int,
                 flags: NotifyFlags = NotifyFlags.NONE) -> RmaWorkRequest:
        """The put carrying message ``seq``: its whole staging slot into
        the same slot of the receiver's ring."""
        offset = self.slot_offset(seq)
        return RmaWorkRequest(
            op=RmaOp.PUT, port=self.port_id, dst_node=self.dst_node_id,
            src_nla=self.staging_nla.base + offset,
            dst_nla=self.ring_nla.base + offset,
            size=self.slot_size, flags=flags)

    def credit_put(self) -> RmaWorkRequest:
        """The put returning credit: the receiver's staging word into the
        sender's credit word, through the channel's port (both NICs open
        the same port id)."""
        return RmaWorkRequest(
            op=RmaOp.PUT, port=self.port_id, dst_node=self.src_node_id,
            src_nla=self.credit_staging_nla.base,
            dst_nla=self.credit_word_nla.base, size=8,
            flags=NotifyFlags.NONE)

    def finish_send(self, seq: int) -> None:
        """Message ``seq`` was posted: move ``next_seq`` past it and let the
        reliability engine, when armed, start tracking it."""
        self.next_seq = max(self.next_seq, seq + 1)
        if self.reliability is not None:
            self.reliability.note_send(seq)


@dataclass
class Channel:
    """A bidirectional channel between two nodes: one ring per direction."""

    a_to_b: ChannelEnd
    b_to_a: ChannelEnd

    def end_for_sender(self, node_id: int) -> ChannelEnd:
        return self.a_to_b if node_id == self.a_to_b.src_node_id else self.b_to_a

    def end_for_receiver(self, node_id: int) -> ChannelEnd:
        return self.a_to_b if node_id == self.a_to_b.dst_node_id else self.b_to_a


def create_channel_between(cluster: Cluster, src: "Node", dst: "Node",
                           slot_size: int = 256, slots: int = 16,
                           port_id: Optional[int] = None,
                           map_notifications: bool = False,
                           control_space: str = "gpu",
                           reliable: bool = False,
                           reliability_config=None,
                           replay_flags: Optional[NotifyFlags] = None) -> Channel:
    """Host-side setup of a bidirectional channel between two arbitrary
    nodes: allocate rings/staging/credit words, register them, open a port
    pair, map everything the device code needs.

    ``port_id`` pins the SAME id on both NICs — required when a cluster
    carries several channels, because completer notifications are routed by
    the port id the put descriptor carries.

    ``map_notifications`` additionally maps each port's requester/completer
    queues into its GPU's address space, enabling the notification-driven
    (``dev2dev-direct``) send/recv variants of :mod:`repro.collectives`.

    ``control_space`` places the flow-control state (credit word + credit
    staging): ``"gpu"`` keeps the sender's polling in device memory (the
    §VI design); ``"hostControlled"`` collectives pass ``"host"`` so the
    driving CPUs poll credits out of their own cache.

    ``reliable`` arms a :class:`repro.faults.reliability.ChannelReliability`
    engine per direction: credits return after every message (turning the
    credit word into a cumulative ACK) and a NIC-resident retransmission
    engine replays unacknowledged slots after a timeout — ``gpu_send`` /
    ``gpu_recv`` then survive packet loss, corruption, and link flaps
    transparently.  ``reliability_config`` tunes its timeouts/budgets, and
    ``replay_flags`` sets the notification flags replayed puts carry
    (default: ``COMPLETER`` when the receive path waits on completer
    notifications — i.e. ``map_notifications`` — else ``NONE``).
    """
    if slot_size <= _HEADER_BYTES or slot_size % 8:
        raise BenchmarkError(
            f"slot_size must be a multiple of 8 and > {_HEADER_BYTES}")
    if slots < 2:
        raise BenchmarkError("need at least 2 slots for flow control")
    if control_space not in ("gpu", "host"):
        raise BenchmarkError(f"bad control space {control_space!r}")

    ports = [src.nic.open_port(port_id), dst.nic.open_port(port_id)]
    if ports[0].port_id != ports[1].port_id:
        raise BenchmarkError(
            f"channel port ids diverged ({ports[0].port_id} vs "
            f"{ports[1].port_id}); pin port_id explicitly")
    ends = []
    for end_src, end_dst, port in ((src, dst, ports[0]),
                                   (dst, src, ports[1])):
        # Staging mirrors the ring depth: slot for seq is reused only after
        # the flow-control credit proves the receiver consumed seq-slots,
        # which in turn proves the NIC finished its DMA read long before.
        staging = end_src.gpu_malloc(slot_size * slots)
        if control_space == "gpu":
            credit = end_src.gpu_malloc(8)
            credit_staging = end_dst.gpu_malloc(8)  # receiver-side scratch
            credit_mem, staging_mem = end_src.gpu.dram, end_dst.gpu.dram
        else:
            credit = end_src.host_malloc(8)
            credit_staging = end_dst.host_malloc(8)
            credit_mem, staging_mem = end_src.host_mem, end_dst.host_mem
        credit_mem.write_u64(credit.base, 0)
        ring = end_dst.gpu_malloc(slot_size * slots)
        end_dst.gpu.dram.fill(ring.base, ring.size, 0)
        end_src.gpu.map_mmio(AddressRange(port.page_addr, 4096))
        if control_space == "host":
            end_src.gpu.map_host_memory(credit)
        if map_notifications:
            for q in (port.requester_queue, port.completer_queue):
                end_src.gpu.map_host_memory(q.range)
        ends.append(ChannelEnd(
            src_node_id=end_src.node_id, dst_node_id=end_dst.node_id,
            port_id=port.port_id, page_addr=port.page_addr,
            staging=staging, staging_nla=end_src.nic.register_memory(staging),
            credit_word=credit,
            credit_word_nla=end_src.nic.register_memory(credit),
            credit_staging=credit_staging,
            credit_staging_nla=end_dst.nic.register_memory(credit_staging),
            credit_mem=credit_mem, credit_staging_mem=staging_mem,
            ring=ring, ring_nla=end_dst.nic.register_memory(ring),
            slot_size=slot_size, slots=slots,
            credit_interval=1 if reliable else max(1, slots // 2),
            port=port,
        ))
    channel = Channel(*ends)
    if reliable:
        # Lazy import: repro.core must not depend on repro.faults unless
        # reliability is actually requested.
        from ..faults.reliability import ChannelReliability
        if replay_flags is None:
            replay_flags = (NotifyFlags.COMPLETER if map_notifications
                            else NotifyFlags.NONE)
        for end, end_src, end_dst in ((channel.a_to_b, src, dst),
                                      (channel.b_to_a, dst, src)):
            end.reliability = ChannelReliability(
                cluster.sim, end_src, end_dst, end,
                config=reliability_config, replay_flags=replay_flags)
    return channel


def create_channel(cluster: Cluster, slot_size: int = 256,
                   slots: int = 16) -> Channel:
    """The two-node convenience wrapper: a channel between the paper pair."""
    return create_channel_between(cluster, cluster.a, cluster.b,
                                  slot_size=slot_size, slots=slots)


def wire_channels(cluster: Cluster, connectivity: str = "ring",
                  **channel_args) -> Iterator[Tuple[Tuple[int, int], Channel]]:
    """Yield ``((low rank, high rank), channel)`` for each channel of a
    communicator over ``cluster``: rank ``k`` to ``k+1 (mod N)`` for
    ``"ring"``, every pair for ``"full"``, and one shared channel for two
    nodes.  Channel ``k`` pins port id ``k`` on both NICs.  Channels are
    created one per step, so a caller that hooks each as it arrives keeps
    the order of everything it allocates or registers."""
    size = len(cluster)
    if connectivity == "full" or size == 2:
        edges = [(i, j) for i in range(size) for j in range(i + 1, size)]
    else:
        edges = [(k, (k + 1) % size) for k in range(size)]
    for port_id, (i, j) in enumerate(edges):
        yield (min(i, j), max(i, j)), create_channel_between(
            cluster, cluster.node(i), cluster.node(j), port_id=port_id,
            **channel_args)


# --- device-side API --------------------------------------------------------------

def gate_send(ctx, end: ChannelEnd, data: bytes):
    """Admit the next message into the ring and return its seq (GPU or
    host sending thread): check that ``data`` fits a slot, then spin on the
    local credit word until at most ``slots`` messages are unacked.  Stamps
    the causal ``snd`` before the gate and ``crd`` after it."""
    if len(data) > end.payload_capacity:
        raise BenchmarkError(
            f"message of {len(data)} bytes exceeds slot payload "
            f"{end.payload_capacity}")
    seq = end.next_seq
    trc = ctx.sim.tracer
    causal = trc.wants("causal")
    if causal:
        addr = end.slot_key(seq)
        actor = f"n{end.src_node_id}"
        trc.flow_event("snd", actor, addr=addr, seq=seq, bytes=len(data))
    need = end.credit_needed(seq)
    if need:
        yield from ctx.spin_until_u64(end.credit_word.base,
                                      lambda v, m=need: v >= m)
    if causal:
        trc.flow_event("crd", actor, addr=addr, seq=seq, gated=need > 0,
                       waited_on=end.credit_key)
    return seq


def gpu_stage_send(ctx: ThreadCtx, end: ChannelEnd, data: bytes,
                   flags: NotifyFlags = NotifyFlags.NONE):
    """Credit-gate and stage one message (device code, sender side) WITHOUT
    posting it.

    Spins on the local credit word (an L2 hit) while the remote ring is
    full, stages payload + header into the message's staging slot, and
    returns the put work request covering the whole slot.  Callers pick the
    control path that posts it — the classic wide post (:func:`gpu_send`)
    or the offload engine's batched doorbell — and must call
    :func:`gpu_finish_send` once the post is issued.
    """
    seq = yield from gate_send(ctx, end, data)
    # Stage payload (padded to 8-byte words) then the header, in this
    # message's staging slot.
    slot, padded, header_addr, header = end.slot_image(seq, data)
    offset = 0
    while offset < len(padded):
        yield from ctx.store(slot + offset, padded[offset:offset + 8])
        offset += 8
    yield from ctx.store_u64(header_addr, header)
    trc = ctx.sim.tracer
    if trc.wants("causal"):
        trc.flow_event("stg", f"n{end.src_node_id}", addr=end.slot_key(seq),
                       seq=seq, bytes=len(data))
    return end.slot_put(seq, flags)


def gpu_finish_send(end: ChannelEnd) -> None:
    """Advance the sender's sequence after a staged message was posted
    (and let the reliability engine, when armed, start tracking it)."""
    end.finish_send(end.next_seq)


def gpu_send(ctx: ThreadCtx, end: ChannelEnd, data: bytes,
             flags: NotifyFlags = NotifyFlags.NONE):
    """Send one message (device code, sender side).

    Blocks (spinning on the local credit word, an L2 hit) while the remote
    ring is full; then stages payload+header and posts a single put covering
    the whole slot.  ``flags`` optionally requests requester/completer
    notifications for the put (the collectives' ``dev2dev-direct`` variant);
    the default keeps the §VI design of no notifications at all.
    """
    wr = yield from gpu_stage_send(ctx, end, data, flags)
    yield from gpu_rma_post_wide(ctx, end.page_addr, wr)
    trc = ctx.sim.tracer
    if trc.wants("causal"):
        trc.flow_event("pst", f"n{end.src_node_id}",
                       addr=(wr.dst_node, wr.dst_nla), via="mmio")
    gpu_finish_send(end)


def gpu_recv(ctx: ThreadCtx, end: ChannelEnd, reverse: ChannelEnd,
             announce: bool = True):
    """Receive the next message (device code, receiver side).

    ``reverse`` is the opposite-direction end (sender side on this node),
    whose BAR page posts credit returns.  Returns the payload bytes.
    ``announce=False`` suppresses the causal ``rcv`` breadcrumb for callers
    that already stamped the receive at its true call time (before their
    own wait), so the walk sees the wait and not a late re-anchor.
    """
    seq = end.consumed + 1
    slot, header_addr = end.ring_slot(seq)
    trc = ctx.sim.tracer
    if announce and trc.wants("causal"):
        trc.flow_event("rcv", f"n{end.dst_node_id}", addr=end.slot_key(seq),
                       seq=seq)
    # decode_header's seq, inlined: this predicate runs on every poll.
    header, _polls = yield from ctx.spin_until_u64(
        header_addr, lambda v, s=seq: (v >> _SEQ_SHIFT) == s)
    data = yield from _consume_slot(ctx, end, reverse, seq, slot, header)
    return data


def gpu_recv_ready(ctx: ThreadCtx, end: ChannelEnd, reverse: ChannelEnd,
                   announce: bool = True):
    """Consume the next message whose arrival is already proven (device
    code, receiver side).

    The notification-driven (``dev2dev-direct``) receive path: after the
    completer notification lands there is nothing left to poll — the header
    is read once from device memory and the slot is drained.  ``reverse``
    serves credit returns exactly as in :func:`gpu_recv` (as does
    ``announce``).
    """
    seq = end.consumed + 1
    slot, header_addr = end.ring_slot(seq)
    trc = ctx.sim.tracer
    if announce and trc.wants("causal"):
        trc.flow_event("rcv", f"n{end.dst_node_id}", addr=end.slot_key(seq),
                       seq=seq, via="notif")
    header = yield from ctx.load_u64(header_addr)
    carried, _ = decode_header(header)
    if carried != seq:
        raise BenchmarkError(
            f"gpu_recv_ready: slot carries seq {carried}, "
            f"expected {seq} (arrival not proven?)")
    data = yield from _consume_slot(ctx, end, reverse, seq, slot, header,
                                    via="notif")
    return data


def _consume_slot(ctx: ThreadCtx, end: ChannelEnd, reverse: ChannelEnd,
                  seq: int, slot: int, header: int, via: str = "poll"):
    """Drain one arrived slot and return credits when due."""
    _, length = decode_header(header)
    data = b""
    offset = 0
    while offset < length:
        step = min(8, length - offset)
        word = yield from ctx.load(slot + offset, 8)
        data += word[:step]
        offset += step
    end.consumed = seq
    trc = ctx.sim.tracer
    if trc.wants("causal"):
        trc.flow_event("rcd", f"n{end.dst_node_id}", addr=end.slot_key(seq),
                       seq=seq, via=via, bytes=length)
    # Return credits every half ring so the sender rarely stalls, and the
    # control traffic stays at one 8-byte put per slots/2 messages (§VI-3).
    # The scratch word and the outgoing BAR page both belong to *this*
    # node: `end.credit_staging` lives in the receiver's GPU, `reverse` is
    # this node's sending direction.
    if end.credit_due():
        yield from ctx.store_u64(end.credit_staging.base, end.consumed)
        yield from gpu_rma_post_wide(ctx, reverse.page_addr, end.credit_put())
        end.credits_returned = end.consumed
    return data
