"""The device-thread execution context.

Device code in this library is written as Python generator functions that
receive a :class:`ThreadCtx` and drive it::

    def kernel(ctx, dst, flag):
        yield from ctx.store_u64(dst, 42)        # global store
        val = yield from ctx.load_u64(flag)      # global load (timed, counted)
        yield from ctx.alu(4)                    # pure ALU work

Each operation advances simulated time according to where the address lives
(device DRAM through the L2, host memory / NIC MMIO across PCIe) and
increments the GPU's performance counters — this is how Tables I and II
emerge from execution rather than from estimates.
"""

from __future__ import annotations

from typing import Callable, Generator, List, TYPE_CHECKING

from ..errors import GpuError
from ..memory import MemorySpace
from ..sim import NULL_SPAN, AllOf, Process
from ..sim.spin import GPU_BACKOFF, spin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .device import Gpu

_SECTOR = 32  # bytes per sysmem/L2 transaction, matching the nvprof metrics


def _sectors(size: int) -> int:
    return max(1, (size + _SECTOR - 1) // _SECTOR)


class ThreadCtx:
    """Execution context of one device thread."""

    #: After 64 misses a poll loop idles between polls (the warp is
    #: descheduled by the scoreboard).  This only engages on waits far
    #: longer than the latency-path waits the paper's counter analysis
    #: covers; see :mod:`repro.sim.spin`.
    BACKOFF = GPU_BACKOFF

    def __init__(self, gpu: "Gpu", block_idx: int, thread_idx: int,
                 block_dim: int, grid_dim: int, track: str = "") -> None:
        self.gpu = gpu
        self.sim = gpu.sim
        self.block_idx = block_idx
        self.thread_idx = thread_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self._outstanding_stores: List[Process] = []
        # Trace track of this thread: one timeline row per device thread.
        # Single-thread blocks (the paper's latency kernels) share the block
        # track so their memory spans nest inside the block span.
        if track:
            self.track = track
        elif block_dim == 1:
            self.track = f"{gpu.name}:b{block_idx}"
        else:
            self.track = f"{gpu.name}:b{block_idx}t{thread_idx}"

    # -- pure compute ---------------------------------------------------------------
    def alu(self, n: int = 1) -> Generator:
        """Issue ``n`` dependent ALU instructions."""
        if n < 0:
            raise GpuError(f"negative instruction count {n}")
        if n == 0:
            return
        self.gpu.counters.instructions_executed += n
        yield self.sim.timeout(n * self.gpu.config.instruction_time)

    def alu_parallel(self, n: int, lanes: int) -> Generator:
        """Issue ``n`` ALU instructions spread over ``lanes`` warp threads.

        Models thread-collaborative descriptor/WQE assembly: the warp's
        lanes each build a slice of the descriptor, so the *critical path*
        is ``ceil(n / lanes)`` dependent instructions, while the counters
        still record all ``n`` issued instructions (work is conserved; only
        latency shrinks).  ``lanes=1`` degenerates to :meth:`alu`.
        """
        if n < 0:
            raise GpuError(f"negative instruction count {n}")
        if lanes < 1 or lanes > 32:
            raise GpuError(f"lanes must be 1..32 (one warp), got {lanes}")
        if n == 0:
            return
        self.gpu.counters.instructions_executed += n
        critical = -(-n // lanes)
        yield self.sim.timeout(critical * self.gpu.config.instruction_time)

    # -- address classification -------------------------------------------------------
    def _classify(self, vaddr: int, size: int) -> tuple[int, MemorySpace]:
        phys = self.gpu.uva.translate(vaddr, size)
        space = self.gpu.port.fabric.address_map.space_of(phys)
        return phys, space

    # -- loads ------------------------------------------------------------------------
    def load(self, vaddr: int, size: int) -> Generator:
        """Load ``size`` bytes from a UVA address.  Returns the bytes."""
        if size <= 0:
            raise GpuError(f"non-positive load size {size}")
        gpu = self.gpu
        gpu.counters.instructions_executed += 1
        gpu.counters.memory_accesses += 1
        phys, space = self._classify(vaddr, size)
        if space is MemorySpace.GPU_DRAM:
            gpu.counters.global_load_accesses += max(1, (size + 7) // 8)
            hits, misses = gpu.l2.read(phys, size)
            gpu.counters.l2_read_requests += hits + misses
            gpu.counters.l2_read_hits += hits
            gpu.counters.l2_read_misses += misses
            latency = gpu.config.l2_hit_latency if misses == 0 else gpu.config.dram_latency
            yield self.sim.timeout(latency)
            return gpu.dram.read(phys, size)
        # Host memory or MMIO: a PCIe round trip, stalling this thread.
        # In-flight uncached reads are bounded (MSHR-style); concurrent
        # pollers from many blocks serialize here.
        gpu.counters.sysmem_read_transactions += _sectors(size)
        trc = self.sim.tracer
        traced = trc.wants("gpu.sysmem")
        span = (trc.begin("gpu.sysmem", "read", track=self.track,
                          addr=hex(phys), bytes=size)
                if traced else NULL_SPAN)
        yield self.sim.timeout(gpu.config.sysmem_issue_overhead)
        yield gpu.sysmem_read_slots.acquire()
        try:
            data = yield from gpu.port.read(phys, size)
        finally:
            gpu.sysmem_read_slots.release()
            span.end()
        if traced:
            trc.metrics.counter("gpu.sysmem_reads").inc()
        return data

    def load_u64(self, vaddr: int) -> Generator:
        data = yield from self.load(vaddr, 8)
        return int.from_bytes(data, "little")

    # -- stores ------------------------------------------------------------------------
    def store(self, vaddr: int, data: bytes) -> Generator:
        """Store bytes to a UVA address.

        Device-memory stores complete through the L2 (write-allocate) and the
        thread continues after issue.  PCIe-bound stores are *posted*: the
        thread pays the issue overhead and continues while the TLP is in
        flight; FIFO links preserve store order.  Use
        :meth:`fence_system` to wait for global visibility.
        """
        if not data:
            raise GpuError("empty store")
        gpu = self.gpu
        gpu.counters.instructions_executed += 1
        gpu.counters.memory_accesses += 1
        phys, space = self._classify(vaddr, len(data))
        if space is MemorySpace.GPU_DRAM:
            gpu.counters.global_store_accesses += max(1, (len(data) + 7) // 8)
            hits, misses = gpu.l2.write(phys, len(data))
            gpu.counters.l2_write_requests += hits + misses
            gpu.dram.write(phys, data)
            yield self.sim.timeout(gpu.config.instruction_time)
            return
        gpu.counters.sysmem_write_transactions += _sectors(len(data))
        trc = self.sim.tracer
        if trc.wants("gpu.sysmem"):
            trc.instant("gpu.sysmem", "posted-store", track=self.track,
                        addr=hex(phys), bytes=len(data))
            trc.metrics.counter("gpu.sysmem_writes").inc()
        yield self.sim.timeout(gpu.config.sysmem_issue_overhead)
        proc = self.sim.process(gpu.port.write(phys, data),
                                name=("posted-store@{:#x}", vaddr))
        self._outstanding_stores.append(proc)
        # Drop references to completed stores so the list stays small.
        self._outstanding_stores = [p for p in self._outstanding_stores if p.pending]

    def store_wide(self, vaddr: int, data: bytes) -> Generator:
        """A warp-coalesced store: the threads of a warp emit one wide
        transaction instead of a sequence of scalar stores.

        This is the 'thread-collaborative interface' primitive the paper's
        discussion asks for (§VI claim 2): one issue slot, one TLP, however
        many bytes the warp contributes (up to 128 B — 32 lanes x 4 B).
        """
        if not data:
            raise GpuError("empty store")
        if len(data) > 128:
            raise GpuError(f"wide store limited to 128 bytes, got {len(data)}")
        gpu = self.gpu
        gpu.counters.instructions_executed += 1
        gpu.counters.memory_accesses += 1
        phys, space = self._classify(vaddr, len(data))
        if space is MemorySpace.GPU_DRAM:
            gpu.counters.global_store_accesses += max(1, (len(data) + 7) // 8)
            hits, misses = gpu.l2.write(phys, len(data))
            gpu.counters.l2_write_requests += hits + misses
            gpu.dram.write(phys, data)
            yield self.sim.timeout(gpu.config.instruction_time)
            return
        gpu.counters.sysmem_write_transactions += _sectors(len(data))
        yield self.sim.timeout(gpu.config.sysmem_issue_overhead)
        proc = self.sim.process(gpu.port.write(phys, data),
                                name=("posted-wide-store@{:#x}", vaddr))
        self._outstanding_stores.append(proc)
        self._outstanding_stores = [p for p in self._outstanding_stores if p.pending]

    def store_u64(self, vaddr: int, value: int) -> Generator:
        yield from self.store(vaddr, (value & (2**64 - 1)).to_bytes(8, "little"))

    def store_u32(self, vaddr: int, value: int) -> Generator:
        yield from self.store(vaddr, (value & (2**32 - 1)).to_bytes(4, "little"))

    def fence_system(self) -> Generator:
        """``__threadfence_system()``: wait until every posted store of this
        thread is globally visible."""
        self.gpu.counters.instructions_executed += 1
        pending = [p for p in self._outstanding_stores if p.pending]
        if pending:
            yield AllOf(self.sim, pending)
        self._outstanding_stores.clear()
        yield self.sim.timeout(self.gpu.config.instruction_time)

    # -- spinning -------------------------------------------------------------------
    def spin_until_u64(self, vaddr: int,
                       predicate: Callable[[int], bool]) -> Generator:
        """Poll a 64-bit location until ``predicate(value)`` holds.

        Returns ``(value, polls)``.  Each iteration pays the load latency of
        wherever ``vaddr`` lives — the crux of the paper's polling analysis —
        plus 4 ALU instructions of compare/branch.  Long waits back off
        (see :data:`BACKOFF`).
        """
        return spin(self, self._poll_u64, (vaddr, predicate), None,
                    GpuError, "spin_until_u64 at {0:#x}",
                    ("gpu.spin", "spin", {"addr": "{0:#x}"}), "gpu.spin_polls")

    def _poll_u64(self, vaddr: int,
                  predicate: Callable[[int], bool]) -> Generator:
        value = yield from self.load_u64(vaddr)
        yield from self.alu(4)
        return value if predicate(value) else None
