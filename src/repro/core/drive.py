"""What every experiment driver shares.

The ping-pong, bandwidth and message-rate drivers, and the offload
engine's and the §VI interface's variants of them, are built from these
pieces:

* :func:`run_measured` runs a driver's handles to completion inside its
  ``bench`` span, and :func:`start_side` starts one side of a connection
  on its GPU or on its CPU;
* :func:`extoll_put` is the one put descriptor every EXTOLL driver posts
  (with :func:`gpu_put` or :func:`cpu_put`; :func:`host_put` also waits
  for the requester notification), and :func:`ib_write_wqe` the one RDMA
  write every IB driver posts (with :func:`post_wqe`; :func:`host_send`
  also reaps the send CQE).  :func:`ib_post_recv` posts the receive that a
  write-with-immediate consumes;
* the assisted handshake, through a flag page in host memory: the GPU
  raises request ``i`` and waits for the CPU proxy's ``FLAG_SENT``
  (:func:`gpu_request`), and the proxy waits for the request
  (:func:`host_await_request`), serves it and answers.
"""

from __future__ import annotations

from ..errors import BenchmarkError
from ..extoll import RmaOp, RmaWorkRequest, rma_post, rma_wait_notification
from ..ib import (
    WQE_FLAG_UNSIGNALED,
    IbOpcode,
    Wqe,
    ibv_post_recv,
    ibv_post_send,
    ibv_wait_cq,
)
from ..sim import NULL_SPAN
from .gpu_rma import gpu_rma_post

# Flag-page layout for the assisted modes (host memory, GPU-mapped).
FLAG_REQUEST = 0    # GPU -> CPU: "send message i"
FLAG_SENT = 8       # CPU -> GPU: "message i is on the wire"
FLAG_ARRIVED = 16   # CPU -> GPU: "message i has arrived"


def check_size(conn, size: int) -> None:
    """Reject a message size that ``conn``'s buffers cannot carry."""
    if size <= 0:
        raise BenchmarkError(f"message size must be positive, got {size}")
    if size > conn.a.send_buf.size:
        raise BenchmarkError(f"size {size} exceeds buffer {conn.a.send_buf.size}")


def run_measured(cluster, handles, name: str, **fields) -> None:
    """Run ``handles`` to completion inside the ``bench`` span ``name``
    (opened only when tracing, with ``fields`` as its arguments)."""
    trc = cluster.sim.tracer
    bench = (trc.begin("bench", name, track="bench", **fields)
             if trc.enabled else NULL_SPAN)
    cluster.sim.run_until_complete(*handles, limit=cluster.sim.now + 600.0)
    bench.end()


def start_side(end, fn, thread: str | None = None):
    """Start ``fn`` on ``end``'s node: as a one-block kernel on its GPU, or,
    given a ``thread`` name, as that thread on its CPU."""
    if thread is None:
        return end.node.gpu.launch(fn)
    return end.node.cpu.spawn(fn, name=thread)


# -- EXTOLL ----------------------------------------------------------------------

def extoll_put(end, peer, size: int, flags) -> RmaWorkRequest:
    """A put of ``size`` bytes from ``end``'s send buffer into ``peer``'s
    receive buffer, requesting the notifications in ``flags``."""
    return RmaWorkRequest(
        op=RmaOp.PUT, port=end.port.port_id, dst_node=peer.node.node_id,
        src_nla=end.send_nla.base, dst_nla=peer.recv_nla.base, size=size,
        flags=flags)


def gpu_put(ctx, end, wr: RmaWorkRequest):
    """Post ``wr`` on ``end``'s port from a GPU thread."""
    return gpu_rma_post(ctx, end.port.page_addr, wr)


def cpu_put(ctx, end, wr: RmaWorkRequest):
    """Post ``wr`` on ``end``'s port from a CPU thread."""
    return rma_post(ctx, end.port.page_addr, wr)


def host_put(ctx, end, wr: RmaWorkRequest):
    """Post ``wr`` from the CPU and wait for its requester notification."""
    yield from rma_post(ctx, end.port.page_addr, wr)
    yield from rma_wait_notification(ctx, end.requester_cursor())


# -- InfiniBand ------------------------------------------------------------------

def ib_write_wqe(end, size: int, wr_id: int, immediate: int | None = None,
                 signaled: bool = True) -> Wqe:
    """An RDMA write of ``size`` bytes from ``end``'s send buffer into its
    peer's receive buffer.  With ``immediate`` it is a write-with-immediate,
    which the peer's CPU sees as a receive CQE; ``signaled=False`` asks for
    no send CQE."""
    return Wqe(opcode=(IbOpcode.RDMA_WRITE if immediate is None
                       else IbOpcode.RDMA_WRITE_WITH_IMM),
               wr_id=wr_id, local_addr=end.send_buf.base, lkey=end.lkey,
               length=size, remote_addr=end.remote_recv_addr,
               rkey=end.rkey_remote, immediate=immediate or 0,
               flags=0 if signaled else WQE_FLAG_UNSIGNALED)


def post_wqe(ctx, end, wqe: Wqe, post_send=ibv_post_send):
    """Post ``wqe`` on ``end``'s send queue with ``post_send`` (the CPU's
    ``ibv_post_send`` or the GPU's ``gpu_post_send``), advancing the
    ring's producer index."""
    end.sq_index = yield from post_send(ctx, end.node.nic, end.qp, wqe,
                                        end.sq_index)


def host_send(ctx, end, wqe: Wqe):
    """Post ``wqe`` from the CPU and reap its send CQE."""
    yield from post_wqe(ctx, end, wqe)
    yield from ibv_wait_cq(ctx, end.host_send_cq_consumer())


def ib_post_recv(ctx, end, size: int):
    """Post one receive for a write-with-immediate of ``size`` bytes from
    the CPU (its address may be zero, §IV-A)."""
    end.rq_index = yield from ibv_post_recv(
        ctx, end.node.nic, end.qp,
        Wqe(opcode=IbOpcode.RECV, wr_id=0, local_addr=0, lkey=0,
            length=max(size, 1)), end.rq_index)


# -- the assisted handshake ------------------------------------------------------

def gpu_request(ctx, flags: int, i: int):
    """GPU side of one assisted send: raise request ``i`` and wait until the
    CPU proxy reports it sent."""
    yield from ctx.store_u64(flags + FLAG_REQUEST, i)
    yield from ctx.spin_until_u64(flags + FLAG_SENT, lambda v: v == i)


def host_await_request(ctx, flags: int, i: int):
    """CPU proxy side: wait until the GPU has raised request ``i``."""
    return ctx.spin_until_u64(flags + FLAG_REQUEST, lambda v: v >= i)
