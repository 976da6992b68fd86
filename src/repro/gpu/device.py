"""The GPU device: memory, L2, UVA mappings, SM slots, launches.

One :class:`Gpu` owns

* a device-DRAM :class:`~repro.memory.Memory` (placed at ``GPU_DRAM_BASE``
  in the node's physical map and exported over PCIe BAR1 — GPUDirect RDMA),
* an L2 cache model in front of that DRAM (invalidated when a peer device
  DMA-writes device memory),
* a UVA translation table.  Device memory is mapped at construction; host
  memory and NIC MMIO pages must be mapped explicitly — the equivalents of
  ``cudaHostRegister`` and the paper's NVIDIA-driver patch (§III-C),
* SM residency slots and the kernel/stream launch machinery.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..errors import GpuError
from ..memory import (
    GPU_DRAM_BASE,
    AddressRange,
    Allocator,
    Cache,
    Memory,
    MemorySpace,
    TranslationTable,
)
from ..pcie import PciePort
from ..sim import Resource, Simulator
from .config import GpuConfig
from .counters import CounterSet
from .kernel import DeviceFn, KernelHandle, run_kernel, validate_geometry
from .stream import Stream


class Gpu:
    """One GPU in a node."""

    def __init__(self, sim: Simulator, name: str = "gpu0",
                 config: Optional[GpuConfig] = None) -> None:
        self.sim = sim
        self.name = name
        self.config = config or GpuConfig()
        self.dram = Memory(f"{name}.dram", GPU_DRAM_BASE,
                           self.config.dram_bytes, MemorySpace.GPU_DRAM)
        self.allocator = Allocator(self.dram)
        self.l2 = Cache(self.config.l2)
        self.counters = CounterSet()
        self.uva = TranslationTable(f"{name}.uva")
        # Device memory is identity-mapped into UVA (as CUDA does).
        self.uva.map(self.dram.range, physical_base=self.dram.range.base)
        self.sm_slots = Resource(sim, capacity=self.config.max_resident_blocks,
                                 name=f"{name}.sm-slots")
        self.sysmem_read_slots = Resource(sim,
                                          capacity=self.config.sysmem_read_slots,
                                          name=f"{name}.sysmem-mshrs")
        self.default_stream = Stream(self, f"{name}.stream0")
        self.launches = 0  # per-GPU launch ordinal (distinct trace tracks)
        self._port: Optional[PciePort] = None

    # -- wiring -------------------------------------------------------------------
    def attach_port(self, port: PciePort) -> None:
        """Connect the GPU to its node's PCIe fabric; claims device DRAM as
        living behind this port and hooks L2 invalidation on peer writes."""
        self._port = port
        port.fabric.address_map.add(self.dram)
        port.fabric.claim(port, self.dram)
        self.dram.write_hooks.append(self._on_external_write)

    def _on_external_write(self, offset: int, length: int) -> None:
        """A peer PCIe agent wrote device memory: drop stale L2 sectors."""
        self.l2.invalidate(self.dram.range.base + offset, length)

    @property
    def port(self) -> PciePort:
        if self._port is None:
            raise GpuError(f"{self.name} is not attached to a PCIe fabric")
        return self._port

    # -- UVA mappings (driver functionality) ----------------------------------------
    def _map_identity(self, rng: AddressRange) -> None:
        # Idempotent: remapping an already-mapped range is a no-op, like
        # cudaHostRegister on a registered range from the same context.
        if (self.uva.try_translate(rng.base, 1) == rng.base
                and self.uva.try_translate(rng.end - 1, 1) == rng.end - 1):
            return
        self.uva.map(rng, physical_base=rng.base)

    def map_host_memory(self, rng: AddressRange) -> None:
        """Map host memory into UVA (cudaHostRegister / zero-copy)."""
        self._map_identity(rng)

    def map_mmio(self, rng: AddressRange) -> None:
        """Map a device BAR page into UVA — the paper's NVIDIA kernel-driver
        patch that lets device threads poke NIC registers (§III-C, §IV-B)."""
        self._map_identity(rng)

    # -- memory management -------------------------------------------------------------
    def malloc(self, size: int) -> AddressRange:
        """cudaMalloc: device-memory allocation, returned as a UVA range."""
        return self.allocator.alloc(size)

    def free(self, rng: AddressRange) -> None:
        self.allocator.free(rng)

    # -- launches ---------------------------------------------------------------------
    def launch(self, fn: DeviceFn, grid: int = 1, block: int = 1,
               args: Tuple[Any, ...] = (), stream: Optional[Stream] = None) -> KernelHandle:
        """Launch ``fn`` over ``grid`` blocks of ``block`` threads.

        Returns a :class:`KernelHandle` that completes when every thread has
        returned.  Launches into one stream are FIFO; separate streams
        overlap.
        """
        validate_geometry(self, grid, block)
        handle = KernelHandle(self, getattr(fn, "__name__", "kernel"), grid, block)
        st = stream or self.default_stream
        launcher = run_kernel(self, handle, fn, grid, block, args, track=st.name)
        st.chain(handle, launcher)
        return handle

    def stream(self, name: str = "") -> Stream:
        return Stream(self, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gpu {self.name} {self.config.name}>"
