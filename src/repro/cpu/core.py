"""Host CPU model.

Host-side control code (drivers, the host-controlled and host-assisted
communication paths) runs as coroutine "host threads" driven by a
:class:`HostThread` context, mirroring :class:`repro.gpu.thread.ThreadCtx`
but with CPU timing: cheap cached polls, cheap single-instruction issue, and
uncached MMIO with write-combining cost.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..errors import ConfigError
from ..memory import Memory
from ..pcie import PciePort
from ..sim import Process, Simulator
from ..sim.spin import HOST_BACKOFF, spin
from .config import CpuConfig


class Cpu:
    """The host processor of one node."""

    def __init__(self, sim: Simulator, name: str = "cpu0",
                 config: Optional[CpuConfig] = None) -> None:
        self.sim = sim
        self.name = name
        self.config = config or CpuConfig()
        self._port: Optional[PciePort] = None
        self._host_mem: Optional[Memory] = None
        self.threads_spawned = 0

    def attach(self, root_port: PciePort, host_mem: Memory) -> None:
        self._port = root_port
        self._host_mem = host_mem

    @property
    def port(self) -> PciePort:
        if self._port is None:
            raise ConfigError(f"{self.name} not attached to a fabric")
        return self._port

    @property
    def host_mem(self) -> Memory:
        if self._host_mem is None:
            raise ConfigError(f"{self.name} not attached to host memory")
        return self._host_mem

    def spawn(self, fn: Callable[["HostThread"], Generator], name: str = "") -> Process:
        """Start a host thread running ``fn(ctx)``."""
        self.threads_spawned += 1
        ctx = HostThread(self, track=name or f"{self.name}.t{self.threads_spawned}")
        return self.sim.process(fn(ctx), name=name or f"{self.name}.t{self.threads_spawned}")


class HostThread:
    """Execution context of one host thread."""

    #: Long waits back off PAUSE-loop style (see :mod:`repro.sim.spin`).
    BACKOFF = HOST_BACKOFF

    def __init__(self, cpu: Cpu, track: str = "") -> None:
        self.cpu = cpu
        self.sim = cpu.sim
        # Trace track of this host thread: one timeline row per thread.
        self.track = track or cpu.name

    # -- compute ----------------------------------------------------------------
    def compute(self, instructions: int) -> Generator:
        if instructions < 0:
            raise ConfigError(f"negative instruction count {instructions}")
        if instructions:
            yield self.sim.timeout(instructions * self.cpu.config.instruction_time)

    def sleep(self, seconds: float) -> Generator:
        yield self.sim.timeout(seconds)

    # -- memory ------------------------------------------------------------------
    def _is_host(self, addr: int, length: int) -> bool:
        return self.cpu.host_mem.range.contains(addr, length)

    def read(self, addr: int, length: int) -> Generator:
        if self._is_host(addr, length):
            yield self.sim.timeout(self.cpu.config.mem_read_latency)
            return self.cpu.host_mem.read(addr, length)
        yield self.sim.timeout(self.cpu.config.mmio_read_overhead)
        data = yield from self.cpu.port.read(addr, length)
        return data

    def write(self, addr: int, data: bytes) -> Generator:
        if self._is_host(addr, len(data)):
            yield self.sim.timeout(self.cpu.config.mem_write_latency)
            self.cpu.host_mem.write(addr, data)
            return
        # MMIO stores are *posted*: the core pays the write-combining issue
        # cost and moves on while the TLP is in flight.  The fabric's FIFO
        # links keep same-target ordering.
        yield self.sim.timeout(self.cpu.config.mmio_write_overhead)
        self.sim.process(self.cpu.port.write(addr, data),
                         name=("cpu-posted-store@{:#x}", addr))

    def read_u64(self, addr: int) -> Generator:
        data = yield from self.read(addr, 8)
        return int.from_bytes(data, "little")

    def write_u64(self, addr: int, value: int) -> Generator:
        yield from self.write(addr, (value & (2**64 - 1)).to_bytes(8, "little"))

    def write_u32(self, addr: int, value: int) -> Generator:
        yield from self.write(addr, (value & (2**32 - 1)).to_bytes(4, "little"))

    # -- polling -----------------------------------------------------------------
    def spin_until_u64(self, addr: int,
                       predicate: Callable[[int], bool]) -> Generator:
        """Poll a u64 until ``predicate`` holds.  Returns (value, polls).

        Polling a host-memory line is nearly free on the CPU (it stays in the
        LLC until a DMA write invalidates it), which is why CPU-controlled
        completion detection wins in the paper.
        """
        cached = self._is_host(addr, 8)
        return spin(self, self._poll_u64, (addr, predicate, cached),
                    None, ConfigError, "spin at {0:#x}")

    def _poll_u64(self, addr: int, predicate: Callable[[int], bool],
                  cached: bool) -> Generator:
        if cached:
            yield self.sim.timeout(self.cpu.config.cached_poll_latency)
            value = self.cpu.host_mem.read_u64(addr)
        else:
            value = yield from self.read_u64(addr)
        return value if predicate(value) else None
