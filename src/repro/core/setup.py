"""Connection setup for the benchmark programs.

These builders do the host-side preparation the paper's test programs
perform before the timed region: allocate payload buffers (in GPU device
memory — all configurations are *dev2dev*), register them with the NIC,
open ports / connect queue pairs, and map the control resources (BAR pages,
doorbells, queues, flags) into the GPU's address space where a configuration
needs device-side access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cluster import Cluster
from ..errors import BenchmarkError
from ..extoll import RmaPort
from ..ib import IbResources, QueuePair, connect_qps
from ..memory import AddressRange
from ..node import Node
from .gpu_rma import GpuNotificationCursor
from .gpu_verbs import GpuCqConsumer


@dataclass
class ExtollEnd:
    """One side of an EXTOLL connection."""

    node: Node
    port: RmaPort
    send_buf: AddressRange           # GPU device memory
    recv_buf: AddressRange           # GPU device memory
    send_nla: AddressRange
    recv_nla: AddressRange
    # Host-memory flag page for the assisted mode (mapped into GPU UVA).
    flag_page: AddressRange

    def __post_init__(self) -> None:
        # One persistent consumer cursor per queue: measurements on the same
        # connection continue where the previous one left off, exactly like
        # reusing a port in the real library.
        self._req_cursor = GpuNotificationCursor(self.port.requester_queue)
        self._cmpl_cursor = GpuNotificationCursor(self.port.completer_queue)

    def requester_cursor(self) -> GpuNotificationCursor:
        return self._req_cursor

    def completer_cursor(self) -> GpuNotificationCursor:
        return self._cmpl_cursor

    def reset_flags(self) -> None:
        """Zero the assisted-mode flag page (between measurements)."""
        self.node.host_mem.fill(self.flag_page.base, self.flag_page.size, 0)


@dataclass
class ExtollConnection:
    a: ExtollEnd
    b: ExtollEnd

    def peer_of(self, end: ExtollEnd) -> ExtollEnd:
        return self.b if end is self.a else self.a


def setup_extoll_connection(cluster: Cluster, buf_bytes: int,
                            port_id: Optional[int] = None) -> ExtollConnection:
    """Open one port pair and register GPU payload buffers on both nodes."""
    ends = []
    ports = [cluster.a.nic.open_port(port_id), cluster.b.nic.open_port(port_id)]
    for node, port in zip(cluster.nodes, ports):
        send_buf = node.gpu_malloc(buf_bytes)
        recv_buf = node.gpu_malloc(buf_bytes)
        flag_page = node.host_malloc(4096)
        node.host_mem.fill(flag_page.base, flag_page.size, 0)
        end = ExtollEnd(
            node=node, port=port,
            send_buf=send_buf, recv_buf=recv_buf,
            send_nla=node.nic.register_memory(send_buf),
            recv_nla=node.nic.register_memory(recv_buf),
            flag_page=flag_page,
        )
        # Device-side access: the requester page (driver patch, §III-C), the
        # kernel-space notification queues, and the assisted-mode flag page.
        node.gpu.map_mmio(AddressRange(port.page_addr, 4096))
        for q in (port.requester_queue, port.completer_queue):
            node.gpu.map_host_memory(q.range)
        node.gpu.map_host_memory(flag_page)
        ends.append(end)
    return ExtollConnection(*ends)


def setup_extoll_connections(cluster: Cluster, buf_bytes: int,
                             count: int) -> List[ExtollConnection]:
    """N independent connections (ports 0..N-1 on both nodes), as the
    message-rate benchmark requires (§V-A2: 'Each message is sent over a
    different EXTOLL RMA port')."""
    if count < 1:
        raise BenchmarkError("need at least one connection")
    return [setup_extoll_connection(cluster, buf_bytes, port_id=i)
            for i in range(count)]


@dataclass
class IbEnd:
    """One side of an InfiniBand connection."""

    node: Node
    qp: QueuePair
    send_cq_consumer_base: int       # CQ buffer base for consumers
    send_buf: AddressRange           # GPU device memory
    recv_buf: AddressRange
    lkey: int
    rkey_remote: int = 0             # peer's rkey for its recv_buf
    remote_recv_addr: int = 0
    flag_page: AddressRange = None   # assisted-mode flag page
    # Persistent ring producer indices — a QP's rings keep advancing across
    # measurements, exactly like a long-lived QP in the real library.
    sq_index: int = 0
    rq_index: int = 0

    def __post_init__(self) -> None:
        from ..ib import CqConsumer

        self._gpu_send_consumer = GpuCqConsumer(self.qp.send_cq.buffer.base,
                                                self.qp.send_cq.entries)
        self._host_send_consumer = CqConsumer(self.qp.send_cq)
        self._host_recv_consumer = CqConsumer(self.qp.recv_cq)

    def send_cq_consumer(self) -> GpuCqConsumer:
        return self._gpu_send_consumer

    def host_send_cq_consumer(self):
        return self._host_send_consumer

    def host_recv_cq_consumer(self):
        return self._host_recv_consumer

    def reset_flags(self) -> None:
        self.node.host_mem.fill(self.flag_page.base, self.flag_page.size, 0)


@dataclass
class IbConnection:
    a: IbEnd
    b: IbEnd

    def peer_of(self, end: IbEnd) -> IbEnd:
        return self.b if end is self.a else self.a


def setup_ib_connection(cluster: Cluster, buf_bytes: int,
                        buffer_location: str = "gpu") -> IbConnection:
    """Create a connected QP pair with WQ/CQ rings on ``buffer_location``
    ('gpu' = dev2devBufOnGPU, 'host' = dev2devBufOnHost) and registered GPU
    payload buffers on both nodes."""
    if buffer_location not in ("gpu", "host"):
        raise BenchmarkError(f"bad buffer location {buffer_location!r}")
    ends = []
    qps = []
    for node in cluster.nodes:
        res = IbResources(node, node.nic)
        qp = res.create_qp(buffer_location)
        qps.append(qp)
        send_buf = node.gpu_malloc(buf_bytes)
        recv_buf = node.gpu_malloc(buf_bytes)
        mr_send = node.nic.register_memory(send_buf)
        mr_recv = node.nic.register_memory(recv_buf)
        flag_page = node.host_malloc(4096)
        node.host_mem.fill(flag_page.base, flag_page.size, 0)
        end = IbEnd(node=node, qp=qp,
                    send_cq_consumer_base=qp.send_cq.buffer.base,
                    send_buf=send_buf, recv_buf=recv_buf,
                    lkey=mr_send.lkey, flag_page=flag_page)
        end._mr_recv_rkey = mr_recv.rkey
        # GPU access to the control path: the doorbell page and, when the
        # rings live in host memory, the ring/CQ buffers (§IV-B).
        node.gpu.map_mmio(node.nic.bar.range)
        if buffer_location == "host":
            for rng in (qp.sq_buffer, qp.rq_buffer,
                        qp.send_cq.buffer, qp.recv_cq.buffer):
                node.gpu.map_host_memory(rng)
        node.gpu.map_host_memory(flag_page)
        ends.append(end)
    connect_qps(qps[0], 0, qps[1], 1)
    # Exchange rkeys/addresses out of band.
    ends[0].rkey_remote = ends[1]._mr_recv_rkey
    ends[0].remote_recv_addr = ends[1].recv_buf.base
    ends[1].rkey_remote = ends[0]._mr_recv_rkey
    ends[1].remote_recv_addr = ends[0].recv_buf.base
    return IbConnection(*ends)


def setup_ib_connections(cluster: Cluster, buf_bytes: int, count: int,
                         buffer_location: str = "gpu") -> List[IbConnection]:
    """N connected QP pairs, one per block/kernel (§V-B2)."""
    if count < 1:
        raise BenchmarkError("need at least one connection")
    conns = []
    for i in range(count):
        conns.append(setup_ib_connection(cluster, buf_bytes, buffer_location))
    return conns
