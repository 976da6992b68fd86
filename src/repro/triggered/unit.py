"""The per-NIC triggered-operations unit.

One :class:`TriggeredUnit` per EXTOLL NIC owns that NIC's threshold
counters and staged chains.  It is a *NIC-resident* engine in the same
sense as :class:`~repro.faults.reliability.ChannelReliability`: it runs as
sim callbacks, posts descriptors through the NIC-internal
:meth:`~repro.extoll.rma.RmaUnit.post_many` path (zero MMIO), and hooks
completions via ``put_listeners`` / CQ listeners.  The only way the host or
GPU appears on the critical path is the optional 8-byte counter doorbell
(:meth:`device_tick`) — one posted store.

Cost model: a counter doorbell pays the unit's ``trigger_time`` decode
before the tick lands; a firing chain pays one ``trigger_time`` scheduling
stage before its descriptors enter the requester pipeline (where each still
pays the serial ``requester_time``, exactly like batch-doorbell posts).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import TriggeredError
from ..extoll import ExtollNic, RmaWorkRequest
from ..sim import NULL_SPAN, SampledStats
from .chain import ChainState, DescriptorChain, TriggeredWorkRequest
from .counter import TriggerCounter


class TriggeredStats(SampledStats):
    """Counters in the uniform ``snapshot()/diff()`` shape the telemetry
    sampler polls; ``armed`` is a live gauge (armed-chain depth)."""

    GAUGES = ("armed",)

    def __init__(self, unit: "TriggeredUnit") -> None:
        self._unit = unit
        self.chains_staged = 0
        self.chains_armed = 0
        self.chains_fired = 0
        self.chains_completed = 0
        self.descriptors_staged = 0
        self.descriptors_fired = 0
        self.counter_ticks = 0
        self.doorbells = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "chains_staged": self.chains_staged,
            "chains_armed": self.chains_armed,
            "chains_fired": self.chains_fired,
            "chains_completed": self.chains_completed,
            "descriptors_staged": self.descriptors_staged,
            "descriptors_fired": self.descriptors_fired,
            "counter_ticks": self.counter_ticks,
            "doorbells": self.doorbells,
            "armed": self._unit.armed_chains,
        }



class TriggeredUnit:
    """Counters + chains + firing logic for one NIC."""

    def __init__(self, node) -> None:
        nic = node.nic
        if not isinstance(nic, ExtollNic):
            raise TriggeredError(
                "triggered operations need an attached EXTOLL NIC")
        if nic.triggered is not None:
            raise TriggeredError(f"{nic.name} already has a triggered unit")
        self.node = node
        self.nic = nic
        self.sim = nic.sim
        self.config = nic.config
        self.stats = TriggeredStats(self)
        self.counters: Dict[int, TriggerCounter] = {}
        self._next_counter = 0
        self.armed_chains = 0
        nic.triggered = self

    # -- counters ------------------------------------------------------------------
    def counter(self, name: str = "") -> TriggerCounter:
        cid = self._next_counter
        self._next_counter += 1
        c = TriggerCounter(self, cid, name=name)
        self.counters[cid] = c
        return c

    def on_doorbell(self, counter_id: int, amount: int) -> None:
        """BAR counter-doorbell entry point (called by the NIC's page
        handler).  Pays the decode stage, then ticks."""
        counter = self.counters.get(counter_id)
        if counter is None:
            raise TriggeredError(
                f"{self.nic.name}: doorbell for unknown counter {counter_id}")
        self.stats.doorbells += 1
        trc = self.sim.tracer
        if trc.wants("trig.tick"):
            trc.instant("trig.tick", "doorbell", track=f"{self.nic.name}.trig",
                        counter=counter.name, amount=amount)
        self.sim.call_later(self.config.trigger_time,
                            lambda: counter.add(amount),
                            name=f"{self.nic.name}.trig-doorbell")

    def device_tick(self, ctx, page_addr: int, counter: TriggerCounter):
        """Device code: tick ``counter`` by one with ONE posted 8-byte store
        to the requester page's counter doorbell.  ``page_addr`` may be any
        of this NIC's mapped requester pages."""
        word = (counter.id << 16) | 1
        yield from ctx.store_u64(
            page_addr + self.config.trigger_doorbell_offset, word)

    # -- completion counting -------------------------------------------------------
    def count_arrivals(self, counter: TriggerCounter,
                       nla_base: Optional[int] = None,
                       nla_size: int = 0) -> Callable[[], None]:
        """Tick ``counter`` for every put that completes on THIS NIC,
        optionally filtered by a destination NLA window — puts-with-counting,
        implemented exactly like the reliability layer's duplicate
        detectors.  Returns an unregister callable."""

        def listener(packet) -> None:
            if nla_base is not None:
                dst = packet.meta.get("dst_nla", -1)
                if not nla_base <= dst < nla_base + nla_size:
                    return
            counter.add()

        self.nic.rma.put_listeners.append(listener)

        def unregister() -> None:
            try:
                self.nic.rma.put_listeners.remove(listener)
            except ValueError:
                pass
        return unregister

    # -- chains --------------------------------------------------------------------
    def chain(self, name: str = "") -> DescriptorChain:
        self.stats.chains_staged += 1
        return DescriptorChain(self, name=name)

    def arm(self, chain: DescriptorChain, counter: TriggerCounter,
            threshold: int) -> None:
        if chain.state is not ChainState.STAGED:
            raise TriggeredError(
                f"{chain.name}: cannot arm a {chain.state.value} chain")
        if not chain.wrs:
            raise TriggeredError(f"{chain.name}: arming an empty chain")
        chain.state = ChainState.ARMED
        self.stats.chains_armed += 1
        self.armed_chains += 1
        # watch() fires synchronously if the counter is already past the
        # threshold, so arm-after-tick and tick-after-arm behave alike.
        counter.watch(threshold, lambda: self._fire(chain))

    def _fire(self, chain: DescriptorChain) -> None:
        # Counter threshold reached.
        self.armed_chains -= 1
        self._launch(chain)

    def _launch(self, chain: DescriptorChain) -> None:
        chain.state = ChainState.FIRED
        chain._remaining = len(chain.wrs)
        self.stats.chains_fired += 1
        self.stats.descriptors_fired += len(chain.wrs)
        trc = self.sim.tracer
        span = (trc.begin("trig", f"fire:{chain.name}",
                          track=f"{self.nic.name}.trig",
                          descriptors=len(chain.wrs))
                if trc.enabled else NULL_SPAN)
        if trc.wants("causal"):
            trc.flow_event("chain.fire", f"{self.nic.name}.trig",
                           chain=chain.name, descriptors=len(chain.wrs))

        def post() -> None:
            wrs = [self._hooked(wr, chain) for wr in chain.wrs]
            if trc.wants("causal"):
                # Chain-fired descriptors never touch a BAR; their causal
                # `pst` happens here, on the NIC.  ``wait_hint`` (set by
                # whoever armed the chain, e.g. the MPI layer) names the
                # address whose delivery the arming counter was counting —
                # the credit->send edge of the DAG.
                hint = getattr(chain, "wait_hint", None)
                for wr in wrs:
                    trc.flow_event("pst", f"{self.nic.name}.trig",
                                   addr=(wr.dst_node, wr.dst_nla),
                                   via="chain", chain=chain.name,
                                   wait_hint=hint)
            self.nic.rma.post_many(wrs)
            span.end()

        # The firing stage: one trigger_time of NIC-internal scheduling,
        # then the descriptors enter the requester pipeline.
        self.sim.call_later(self.config.trigger_time, post,
                            name=f"{self.nic.name}.chain-fire")

    def _hooked(self, wr: RmaWorkRequest,
                chain: DescriptorChain) -> TriggeredWorkRequest:
        prior = getattr(wr, "on_started", None)

        def started() -> None:
            if prior is not None:
                prior()
            self._wr_started(chain)

        return TriggeredWorkRequest(
            op=wr.op, port=wr.port, dst_node=wr.dst_node, src_nla=wr.src_nla,
            dst_nla=wr.dst_nla, size=wr.size, flags=wr.flags,
            on_started=started)

    def _wr_started(self, chain: DescriptorChain) -> None:
        chain._remaining -= 1
        if chain._remaining == 0:
            chain.state = ChainState.COMPLETED
            self.stats.chains_completed += 1
            trc = self.sim.tracer
            if trc.wants("causal"):
                trc.flow_event("chain.done", f"{self.nic.name}.trig",
                               chain=chain.name)
            for counter in chain.completion_ticks:
                counter.add()
            chain.completed.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TriggeredUnit {self.nic.name} counters="
                f"{len(self.counters)} armed={self.armed_chains}>")


def triggered_unit(node) -> TriggeredUnit:
    """The node's triggered unit, creating it on first use."""
    if node.nic is not None and getattr(node.nic, "triggered", None) is not None:
        return node.nic.triggered
    return TriggeredUnit(node)
