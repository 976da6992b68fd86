"""GPU model: device, SM residency, kernels, streams, threads, counters."""

from .config import GpuConfig
from .counters import CounterSet
from .device import Gpu
from .kernel import KernelHandle
from .stream import Stream
from .thread import ThreadCtx

__all__ = [
    "Gpu",
    "GpuConfig",
    "CounterSet",
    "KernelHandle",
    "Stream",
    "ThreadCtx",
]
