"""Pre-staged descriptor chains.

A :class:`DescriptorChain` is a list of RMA work requests staged *once*
(off the critical path) and fired later by a threshold counter — the NIC
executes the whole chain with zero host/GPU descriptor posts, exactly the
deferred-execution model of arXiv:2406.05594.  Chains tick counters when
they complete, so a whole communication round (e.g. a halo exchange) can be
staged as a DAG and set off by one kernel tick.

Lifecycle::

    STAGED --arm()--> ARMED --counter>=threshold--> FIRED --all WRs
      |                 |                            started--> COMPLETED
      +----cancel()-----+--> CANCELLED

The firing mechanics live in :class:`~repro.triggered.unit.TriggeredUnit`;
this module only holds the chain state and the hook-carrying WR subclass.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, List, Optional

from ..errors import TriggeredError
from ..extoll import RmaWorkRequest
from ..sim import Event


@dataclasses.dataclass(frozen=True)
class TriggeredWorkRequest(RmaWorkRequest):
    """A work request carrying a local-completion hook.

    ``on_started`` has no wire representation: chains are posted through
    :meth:`~repro.extoll.rma.RmaUnit.post_many` (the NIC-internal path) and
    never round-trip through ``encode()/decode()``, so the hook survives to
    the requester pipeline, which invokes it once the transfer has been
    handed to the wire.
    """

    on_started: Optional[Callable[[], None]] = dataclasses.field(
        default=None, compare=False, repr=False)


class ChainState(enum.Enum):
    STAGED = "staged"
    ARMED = "armed"
    FIRED = "fired"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


class DescriptorChain:
    """An ordered list of pre-staged WRs fired as one unit."""

    def __init__(self, unit, name: str = "") -> None:
        self.unit = unit
        self.name = name or f"chain{id(self) & 0xFFFF:04x}"
        self.wrs: List[RmaWorkRequest] = []
        self.state = ChainState.STAGED
        #: Succeeds when every descriptor has been started by the NIC.
        self.completed: Event = unit.sim.event(name=f"trig:{self.name}")
        #: Counters ticked on completion — the DAG edges.
        self.completion_ticks: List[object] = []
        self._watch = None          # CounterWatch while ARMED
        self._remaining = 0         # WRs not yet started, while FIRED

    # -- staging -------------------------------------------------------------------
    def _require_stageable(self) -> None:
        if self.state not in (ChainState.STAGED, ChainState.ARMED):
            raise TriggeredError(
                f"{self.name}: cannot modify a {self.state.value} chain")

    def append(self, wr: RmaWorkRequest) -> "DescriptorChain":
        self._require_stageable()
        self.wrs.append(wr)
        self.unit.stats.descriptors_staged += 1
        return self

    def extend(self, wrs) -> "DescriptorChain":
        for wr in wrs:
            self.append(wr)
        return self

    def replace_wr(self, index: int, **fields) -> None:
        """Patch a staged descriptor in place (e.g. fill in the destination
        NLA a rendezvous CTS carried).  Only before the chain fires."""
        self._require_stageable()
        self.wrs[index] = dataclasses.replace(self.wrs[index], **fields)

    def on_complete_tick(self, counter) -> "DescriptorChain":
        """Tick ``counter`` by one when this chain completes — how
        chain-to-chain dependencies are expressed."""
        self._require_stageable()
        self.completion_ticks.append(counter)
        return self

    # -- arming / firing -----------------------------------------------------------
    def arm(self, counter, threshold: int) -> "DescriptorChain":
        self.unit.arm(self, counter, threshold)
        return self

    def fire(self) -> "DescriptorChain":
        """Fire immediately (the explicit-go path)."""
        self.unit.fire_now(self)
        return self

    def cancel(self) -> None:
        self.unit.cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DescriptorChain {self.name} {self.state.value} "
                f"wrs={len(self.wrs)}>")
