"""Reliability for msglib channels: cumulative-credit ACKs, timeout +
exponential backoff, go-back-N replay.

The §VI slot-ring protocol already carries everything a reliability layer
needs: the sender's *credit word* is a cumulative acknowledgement (the
receiver writes back the highest sequence number it consumed), and the
staging ring keeps every unacknowledged slot's bytes exactly until the
credit proves consumption.  A reliable channel therefore needs only

* the receiver to return credit after EVERY message
  (``ChannelEnd.credit_interval = 1``) instead of every ``slots/2``,
* a per-direction :class:`ChannelReliability` engine on the sender's NIC
  that watches ``credit < next_seq - 1`` and, after an exponentially
  backed-off timeout without progress, re-posts the puts for every
  unacknowledged slot (go-back-N: slots ``credit+1 .. next_seq-1``), and
* a duplicate detector on the receiver's NIC (an :class:`~repro.extoll.rma
  .RmaUnit` put listener): a replayed put landing on an already-consumed
  slot means the *credit return* was lost, so the receiver re-puts the
  credit word — the ack-of-a-lost-ack every retransmission protocol needs.

The engines are NIC-resident model processes (hardware retransmission
offload), not device code: ``gpu_send``/``gpu_recv`` keep their fast paths
and only pay a plain attribute check plus :meth:`ChannelReliability
.note_send` when reliability is on, and literally nothing when it is off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from ..errors import ConfigError, RetryExhaustedError
from ..extoll import NotifyFlags
from ..network import Packet
from ..sim import SampledStats, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.msglib import ChannelEnd
    from ..node import Node


@dataclass(frozen=True)
class ReliabilityConfig:
    """Timeout/backoff/budget knobs of the retransmission engines."""

    timeout: float = 30e-6        # initial retransmission timeout (RTO)
    backoff: float = 2.0          # RTO multiplier per fruitless timeout
    max_timeout: float = 2e-3     # RTO ceiling
    max_retries: int = 24         # fruitless timeouts before giving up
    replay_overhead: float = 500e-9   # NIC re-issue cost per replayed WR
    ack_replay_delay: float = 2e-6    # receiver-side credit re-put delay

    def __post_init__(self) -> None:
        if self.timeout <= 0 or self.max_timeout < self.timeout:
            raise ConfigError("need 0 < timeout <= max_timeout")
        if self.backoff < 1.0:
            raise ConfigError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 1:
            raise ConfigError("need max_retries >= 1")


class ChannelReliability(SampledStats):
    """One direction's retransmission engine (sender side) plus duplicate
    re-ack hook (receiver side).  Both read and write the protocol state at
    model level, like the NIC's DMA units they stand in for."""

    def __init__(self, sim: Simulator, src_node: "Node", dst_node: "Node",
                 end: "ChannelEnd", config: Optional[ReliabilityConfig] = None,
                 replay_flags: NotifyFlags = NotifyFlags.NONE) -> None:
        self.sim = sim
        self.src_node = src_node
        self.dst_node = dst_node
        self.end = end
        self.config = config or ReliabilityConfig()
        self.replay_flags = replay_flags
        # Stats the chaos harness reconciles against the Chrome trace.
        self.retransmits = 0          # replayed data puts
        self.timeouts = 0             # fruitless RTO expirations
        self.ack_replays = 0          # receiver-side credit re-puts
        self.error: Optional[RetryExhaustedError] = None
        self._kick = None
        self._ack_replay_pending = False
        sim.process(self._tx_loop(),
                    name=f"rel.{end.src_node_id}->{end.dst_node_id}.tx")
        dst_node.nic.rma.put_listeners.append(self._on_put_completed)

    # -- sender-visible state -----------------------------------------------------
    def acked(self) -> int:
        """Cumulative ack: the credit word in the sender's memory."""
        return self.end.read_credit()

    @property
    def highest_sent(self) -> int:
        return self.end.next_seq - 1

    @property
    def outstanding(self) -> int:
        return max(0, self.highest_sent - self.acked())

    def note_send(self, seq: int) -> None:
        """Called by ``gpu_send``/host send right after posting ``seq`` —
        wakes the parked engine.  Plain function call, no simulated cost."""
        if self._kick is not None and not self._kick.triggered:
            self._kick.succeed()

    # -- uniform stats protocol -----------------------------------------------
    GAUGES = ("outstanding",)

    def snapshot(self) -> dict:
        """Uniform ``snapshot()/diff()`` shape for the telemetry sampler:
        monotonic retransmission counters plus the ``outstanding`` gauge
        (unacked slots right now) and a sticky ``exhausted`` flag."""
        return {"retransmits": self.retransmits, "timeouts": self.timeouts,
                "ack_replays": self.ack_replays,
                "exhausted": int(self.error is not None),
                "outstanding": self.outstanding}


    # -- sender engine ------------------------------------------------------------
    def _tx_loop(self):
        cfg = self.config
        while True:
            if self.outstanding == 0:
                self._kick = self.sim.event("rel.kick")
                yield self._kick
                continue
            rto = cfg.timeout
            retries = 0
            while self.outstanding > 0:
                before = self.acked()
                yield self.sim.timeout(rto)
                now_acked = self.acked()
                if now_acked >= self.highest_sent:
                    break
                if now_acked > before:
                    # Progress without our help: fresh RTO, no replay.
                    rto = cfg.timeout
                    retries = 0
                    continue
                self.timeouts += 1
                retries += 1
                if retries > cfg.max_retries:
                    self.error = RetryExhaustedError(
                        f"channel {self.end.src_node_id}->"
                        f"{self.end.dst_node_id}: seq "
                        f"{now_acked + 1}..{self.highest_sent} unacked after "
                        f"{cfg.max_retries} retries")
                    trc = self.sim.tracer
                    if trc.enabled:
                        # The flight recorder auto-dumps on this instant.
                        trc.instant(
                            "fault", "retry-exhausted",
                            track=f"rel.{self.end.src_node_id}->"
                                  f"{self.end.dst_node_id}",
                            detail=str(self.error))
                        trc.metrics.counter("faults.retry_exhausted").inc()
                    raise self.error
                yield from self._replay(now_acked)
                rto = min(rto * cfg.backoff, cfg.max_timeout)

    def _replay(self, acked: int):
        """Go-back-N: re-post every unacknowledged slot's put."""
        end = self.end
        first = acked + 1
        last = min(self.highest_sent, acked + end.slots)
        trc = self.sim.tracer
        for seq in range(first, last + 1):
            yield self.sim.timeout(self.config.replay_overhead)
            # Raced ack while pacing the replays: stop re-sending old data.
            if self.acked() >= seq:
                continue
            self.src_node.nic.rma.post(end.slot_put(seq, self.replay_flags))
            self.retransmits += 1
            if trc.enabled:
                trc.instant("fault", "retransmit",
                            track=f"rel.{end.src_node_id}->{end.dst_node_id}",
                            seq=seq)
                trc.metrics.counter("faults.retransmits").inc()

    # -- receiver-side duplicate handling ------------------------------------------
    def _on_put_completed(self, packet: Packet) -> None:
        """RmaUnit put listener on the RECEIVER's NIC: a put landing on an
        already-consumed ring slot is a replay, which means the sender
        never saw our credit — re-put it."""
        end = self.end
        meta = packet.meta
        dst_nla = meta.get("dst_nla")
        if dst_nla is None or not end.ring_nla.contains(dst_nla, 1):
            return
        seq = end.landed_seq(self.dst_node.gpu.dram, dst_nla)
        if seq == 0 or seq > end.consumed:
            return                       # fresh data: the normal path owns it
        if self._ack_replay_pending:
            return                       # one credit re-put in flight at a time
        self._ack_replay_pending = True
        self.sim.process(self._replay_credit(),
                         name=f"rel.{end.src_node_id}->"
                              f"{end.dst_node_id}.reack")

    def _replay_credit(self):
        end = self.end
        yield self.sim.timeout(self.config.ack_replay_delay)
        self._ack_replay_pending = False
        consumed = end.consumed
        if consumed == 0:
            return
        end.credit_staging_mem.write_u64(end.credit_staging.base, consumed)
        self.dst_node.nic.rma.post(end.credit_put())
        self.ack_replays += 1
        trc = self.sim.tracer
        if trc.enabled:
            trc.instant("fault", "ack-replay",
                        track=f"rel.{end.src_node_id}->{end.dst_node_id}",
                        credit=consumed)
            trc.metrics.counter("faults.ack_replays").inc()
