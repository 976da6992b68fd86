"""CUDA-style streams: per-stream FIFO ordering of kernels.

Kernels launched into the same stream execute one after another; kernels in
different streams run concurrently (subject to SM residency).  This is what
the paper's ``dev2dev-kernels`` message-rate variant exercises: 32 streams,
each with its own one-block kernel and its own connection (§V-A2, §V-B2).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..sim import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .device import Gpu
    from .kernel import KernelHandle


class Stream:
    """An in-order launch queue on one GPU."""

    _next_id = 0

    def __init__(self, gpu: "Gpu", name: str = "") -> None:
        self.gpu = gpu
        Stream._next_id += 1
        self.name = name or f"stream{Stream._next_id}"
        self._tail: Optional[Event] = None  # completion of the last launch

    @property
    def idle(self) -> bool:
        return self._tail is None or self._tail.processed

    def chain(self, handle: "KernelHandle", launcher) -> None:
        """Internal: order ``launcher`` (a generator) after the current tail."""
        prev = self._tail
        self._tail = handle

        def gated():
            if prev is not None and not prev.processed:
                yield prev
            yield from launcher

        self.gpu.sim.process(gated(), name=f"{self.name}:{handle.fn_name}")
