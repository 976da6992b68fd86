"""repro.triggered — triggered operations: threshold counters, pre-staged
descriptor chains over the EXTOLL engine.

The deferred-execution model of arXiv:2406.05594 grafted onto the put/get
study: communication is *staged* off the critical path, *armed* against a
threshold counter, and *fired* by completions or a single 8-byte kernel
tick — no host proxy and no per-message descriptor writes.
"""

from .chain import ChainState, DescriptorChain, TriggeredWorkRequest
from .counter import CounterWatch, TriggerCounter
from .unit import TriggeredStats, TriggeredUnit, triggered_unit

__all__ = [
    "ChainState",
    "CounterWatch",
    "DescriptorChain",
    "TriggerCounter",
    "TriggeredStats",
    "TriggeredUnit",
    "TriggeredWorkRequest",
    "triggered_unit",
]
