"""Kernel launches: grids of blocks of threads.

A kernel is a device function (generator taking a :class:`ThreadCtx` plus
user arguments) launched over ``grid`` blocks of ``block`` threads.  Each
thread runs as its own simulation process; a block occupies one SM residency
slot for its lifetime.  The :class:`KernelHandle` completes when every thread
has returned, and collects per-thread return values.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, TYPE_CHECKING

from ..errors import LaunchError
from ..sim import NULL_SPAN, AllOf, Event, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .device import Gpu

DeviceFn = Callable[..., Any]  # generator function: (ctx, *args) -> generator


class KernelHandle(Event):
    """Completion event of a launched kernel."""

    __slots__ = ("fn_name", "grid", "block", "results", "launch_id")

    def __init__(self, gpu: "Gpu", fn_name: str, grid: int, block: int) -> None:
        super().__init__(gpu.sim, f"kernel:{fn_name}")
        self.fn_name = fn_name
        self.grid = grid
        self.block = block
        # Per-GPU launch ordinal; makes trace tracks of concurrent launches
        # (one kernel per stream) distinct.
        self.launch_id = gpu.launches
        gpu.launches += 1
        # results[(block_idx, thread_idx)] = return value of that thread
        self.results: Dict[Tuple[int, int], Any] = {}

    def block_result(self, block_idx: int) -> Any:
        """The return value of thread 0 of block ``block_idx``."""
        return self.results[(block_idx, 0)]


def validate_geometry(gpu: "Gpu", grid: int, block: int) -> None:
    if grid <= 0:
        raise LaunchError(f"grid must have at least one block, got {grid}")
    if block <= 0:
        raise LaunchError(f"block must have at least one thread, got {block}")
    if block > 1024:
        raise LaunchError(f"max 1024 threads per block, got {block}")
    if grid > 2**31 - 1:  # pragma: no cover - sanity bound
        raise LaunchError("grid dimension too large")


def run_kernel(gpu: "Gpu", handle: KernelHandle, fn: DeviceFn, grid: int,
               block: int, args: tuple, track: str = "") -> Any:
    """The launch process body: dispatch blocks onto SM slots, join them.

    ``track`` names the trace timeline the kernel span lands on (one per
    stream, so FIFO launches nest cleanly)."""
    from .thread import ThreadCtx  # local import avoids a cycle

    trc = gpu.sim.tracer
    span = (trc.begin("gpu.kernel", handle.fn_name, track=track or gpu.name,
                      grid=grid, block=block)
            if trc.enabled else NULL_SPAN)
    yield gpu.sim.timeout(gpu.config.launch_overhead)

    block_procs: List[Process] = []
    for b in range(grid):
        block_procs.append(gpu.sim.process(
            _run_block(gpu, handle, fn, b, block, grid, args),
            name=f"{handle.fn_name}:block{b}",
        ))
    try:
        yield AllOf(gpu.sim, block_procs)
    except Exception as exc:
        # A device-side crash (or bad device function) fails the launch.
        span.end(error=repr(exc))
        handle.fail(exc)
        return
    span.end()
    if trc.enabled:
        trc.metrics.counter("gpu.kernels_launched").inc()
    handle.succeed(handle.results)


def _run_block(gpu: "Gpu", handle: KernelHandle, fn: DeviceFn, block_idx: int,
               block_dim: int, grid_dim: int, args: tuple):
    from .thread import ThreadCtx

    yield gpu.sm_slots.acquire()
    # One timeline row per block; the launch ordinal keeps concurrent
    # kernels (one block each, many streams) on distinct tracks.
    block_track = f"{gpu.name}:k{handle.launch_id}.b{block_idx}"
    trc = gpu.sim.tracer
    span = (trc.begin("gpu.block", f"{handle.fn_name}:b{block_idx}",
                      track=block_track)
            if trc.enabled else NULL_SPAN)
    try:
        yield gpu.sim.timeout(gpu.config.block_dispatch_overhead)
        threads: List[Process] = []
        for t in range(block_dim):
            ctx = ThreadCtx(gpu, block_idx, t, block_dim, grid_dim,
                            track=(block_track if block_dim == 1
                                   else f"{block_track}.t{t}"))
            gen = fn(ctx, *args)
            if not hasattr(gen, "send"):
                raise LaunchError(
                    f"device function {handle.fn_name!r} must be a generator "
                    "(missing yield?)"
                )
            threads.append(gpu.sim.process(gen, name=f"{handle.fn_name}:b{block_idx}t{t}"))
        joined = yield AllOf(gpu.sim, threads)
        for t, proc in enumerate(threads):
            handle.results[(block_idx, t)] = joined[proc]
    finally:
        span.end()
        gpu.sm_slots.release()
