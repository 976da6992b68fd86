"""repro.faults — deterministic fault injection and reliability.

One injection model and one reliability engine:

* :class:`FaultPlan` / :class:`LinkFaults` — a declarative, hashable
  description of how often packets are lost or corrupted on which links,
  seeded so every run replays bit-identically.  Links never go down and
  never reorder: whatever survives lands in the order it was sent, the
  lossless-fabric premise of the paper's put/get modes (§V-B1).
* :class:`FaultInjector` — attaches a plan to a concrete network fabric,
  installing :class:`LinkFaultState` on each faulted
  :class:`~repro.network.NetLink`.
* :class:`ChannelReliability` / :class:`ReliabilityConfig` — the
  retransmission engine behind ``create_channel_between(reliable=True)``:
  per-message cumulative ACKs via the credit word, timeout + exponential
  backoff, go-back-N replay, and receiver-side credit re-acks.

``FaultPlan.none()`` (the default everywhere) installs nothing at all, so
the fault layer is bit-for-bit invisible until asked for — the same
zero-cost contract as :class:`~repro.sim.trace.NullTracer`.
"""

from .injector import FaultInjector, LinkFaultState
from .plan import FaultPlan, LinkFaults
from .reliability import ChannelReliability, ReliabilityConfig

__all__ = [
    "ChannelReliability",
    "FaultInjector",
    "FaultPlan",
    "LinkFaults",
    "LinkFaultState",
    "ReliabilityConfig",
]
