"""A compute node: host CPU + host DRAM + GPU + PCIe fabric + (optionally) a
NIC — one box of the paper's testbed.

Host memory is split into a *user* region and a *kernel* region; EXTOLL's
notification queues and InfiniBand's driver structures live in the kernel
region, exactly where the paper locates them (§III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cpu import Cpu, CpuConfig
from .errors import ConfigError
from .gpu import Gpu, GpuConfig
from .memory import (
    HOST_DRAM_BASE,
    MMIO_BASE,
    AddressMap,
    AddressRange,
    Allocator,
    Memory,
    MemorySpace,
)
from .network import Endpoint
from .pcie import FabricConfig, PcieFabric, PcieLinkConfig
from .sim import Simulator
from .units import MIB


@dataclass(frozen=True)
class NodeConfig:
    host_mem_bytes: int = 128 * MIB
    kernel_mem_bytes: int = 16 * MIB
    gpu: GpuConfig = field(default_factory=GpuConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    pcie: FabricConfig = field(default_factory=FabricConfig)
    gpu_link: PcieLinkConfig = field(default_factory=PcieLinkConfig)

    def __post_init__(self) -> None:
        if self.kernel_mem_bytes >= self.host_mem_bytes:
            raise ConfigError("kernel region must be smaller than host memory")


class Node:
    """One node of the testbed."""

    def __init__(self, sim: Simulator, node_id: int,
                 config: Optional[NodeConfig] = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config or NodeConfig()

        self.address_map = AddressMap()
        self.host_mem = Memory(f"n{node_id}.host", HOST_DRAM_BASE,
                               self.config.host_mem_bytes, MemorySpace.HOST_DRAM)
        self.address_map.add(self.host_mem)

        user_bytes = self.config.host_mem_bytes - self.config.kernel_mem_bytes
        self.user_alloc = Allocator(
            self.host_mem, region=AddressRange(HOST_DRAM_BASE, user_bytes))
        self.kernel_alloc = Allocator(
            self.host_mem,
            region=AddressRange(HOST_DRAM_BASE + user_bytes,
                                self.config.kernel_mem_bytes))

        self.pcie = PcieFabric(sim, self.address_map, self.config.pcie)
        self.pcie.claim(self.pcie.root, self.host_mem)

        self.cpu = Cpu(sim, f"n{node_id}.cpu", self.config.cpu)
        self.cpu.attach(self.pcie.root, self.host_mem)

        self.gpu = Gpu(sim, f"n{node_id}.gpu", self.config.gpu)
        gpu_port = self.pcie.attach(self.gpu.name, self.config.gpu_link)
        self.gpu.attach_port(gpu_port)

        self.nic = None  # set by attach_extoll / attach_ib

    # -- NIC installation -------------------------------------------------------
    def attach_extoll(self, endpoint: Endpoint, config=None):
        """Install an EXTOLL card (driver load: BAR mapped, RMA unit running,
        kernel-space notification storage reserved)."""
        from .extoll import ExtollNic

        if self.nic is not None:
            raise ConfigError(f"node {self.node_id} already has a NIC")
        nic = ExtollNic(self.sim, self.node_id, config=config)
        nic.attach(self.pcie, MMIO_BASE, self.kernel_alloc, endpoint)
        self.nic = nic
        return nic

    def attach_ib(self, endpoint: Endpoint, config=None):
        """Install an InfiniBand HCA."""
        from .ib import Hca

        if self.nic is not None:
            raise ConfigError(f"node {self.node_id} already has a NIC")
        hca = Hca(self.sim, self.node_id, config=config)
        hca.attach(self.pcie, MMIO_BASE, endpoint)
        self.nic = hca
        return hca

    # -- convenience ---------------------------------------------------------------
    def host_malloc(self, size: int) -> AddressRange:
        return self.user_alloc.alloc(size)

    def gpu_malloc(self, size: int) -> AddressRange:
        return self.gpu.malloc(size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id}>"
