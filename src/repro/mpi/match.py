"""The (source, tag, comm) matching engine.

MPI's matching rule: a receive matches the oldest incoming message whose
``(source, tag)`` it accepts (``ANY_SOURCE`` / ``ANY_TAG`` wildcards), and
messages between one (source, destination, tag) pair are delivered in the
order they were sent — non-overtaking.  Both queues are plain FIFOs scanned
front to back, which gives exactly those semantics and makes the match
order a pure function of arrival order; the transport is deterministic for
a fixed seed, so match order replays identically.

The engine is NIC-resident model state (libfabric-style offloaded
matching): entries are posted/consumed by plain function calls from the
communicator's arrival hooks, with no simulated host cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from ..sim import SampledStats
from .envelope import ANY_SOURCE, ANY_TAG, Envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .request import MpiRequest


@dataclass
class Inbound:
    """One arrived-but-possibly-unmatched message."""

    envelope: Envelope
    payload: bytes = b""    # EAGER only; rendezvous data lands later

    @property
    def src_rank(self) -> int:
        return self.envelope.src_rank

    @property
    def tag(self) -> int:
        return self.envelope.tag


class MatchEngine(SampledStats):
    """Posted-receive and unexpected-message queues for one rank."""

    GAUGES = ("posted_depth", "unexpected_depth")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.posted: List["MpiRequest"] = []
        self.unexpected: List[Inbound] = []
        self.matches = 0
        self.unexpected_arrivals = 0
        self.posted_peak = 0
        self.unexpected_peak = 0

    @staticmethod
    def _accepts(req: "MpiRequest", msg: Inbound) -> bool:
        return ((req.source == ANY_SOURCE or req.source == msg.src_rank)
                and (req.tag == ANY_TAG or req.tag == msg.tag))

    def post(self, req: "MpiRequest") -> Optional[Inbound]:
        """Post a receive.  Returns the unexpected message it matches (oldest
        acceptable arrival), or None after queuing it."""
        for i, msg in enumerate(self.unexpected):
            if self._accepts(req, msg):
                self.matches += 1
                return self.unexpected.pop(i)
        self.posted.append(req)
        self.posted_peak = max(self.posted_peak, len(self.posted))
        return None

    def incoming(self, msg: Inbound) -> Optional["MpiRequest"]:
        """Feed an arrival.  Returns the posted receive it matches (oldest
        acceptable), or None after queuing it as unexpected."""
        for i, req in enumerate(self.posted):
            if self._accepts(req, msg):
                self.matches += 1
                return self.posted.pop(i)
        self.unexpected.append(msg)
        self.unexpected_arrivals += 1
        self.unexpected_peak = max(self.unexpected_peak,
                                   len(self.unexpected))
        return None

    # -- uniform stats protocol ----------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        return {
            "matches": self.matches,
            "unexpected_arrivals": self.unexpected_arrivals,
            "posted_peak": self.posted_peak,
            "unexpected_peak": self.unexpected_peak,
            "posted_depth": len(self.posted),
            "unexpected_depth": len(self.unexpected),
        }

