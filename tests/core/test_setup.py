"""Unit tests for connection setup builders."""

import pytest

from repro import build_extoll_cluster, build_ib_cluster
from repro.errors import BenchmarkError
from repro.core import (
    setup_extoll_connection,
    setup_extoll_connections,
    setup_ib_connection,
    setup_ib_connections,
)
from repro.memory import MemorySpace
from repro.units import KIB


def test_extoll_connection_has_registered_gpu_buffers():
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 8 * KIB)
    for end in (conn.a, conn.b):
        # Payload buffers live in GPU device memory (dev2dev).
        assert end.node.gpu.dram.range.contains(end.send_buf.base,
                                                end.send_buf.size)
        # NLAs translate back to the physical buffers.
        atu = end.node.nic.atu
        assert atu.translate(end.send_nla.base) == end.send_buf.base
        assert atu.translate(end.recv_nla.base) == end.recv_buf.base


def test_extoll_control_resources_mapped_into_gpu():
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)
    for end in (conn.a, conn.b):
        uva = end.node.gpu.uva
        assert uva.try_translate(end.port.page_addr) is not None
        assert uva.try_translate(end.port.requester_queue.slot_addr(0)) is not None
        assert uva.try_translate(end.flag_page.base) is not None


def test_extoll_connections_use_matching_port_ids():
    cluster = build_extoll_cluster()
    conns = setup_extoll_connections(cluster, 4 * KIB, 3)
    for i, conn in enumerate(conns):
        assert conn.a.port.port_id == i
        assert conn.b.port.port_id == i


def test_extoll_peer_of():
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)
    assert conn.peer_of(conn.a) is conn.b
    assert conn.peer_of(conn.b) is conn.a


def test_ib_connection_rkey_exchange():
    cluster = build_ib_cluster()
    conn = setup_ib_connection(cluster, 4 * KIB)
    assert conn.a.remote_recv_addr == conn.b.recv_buf.base
    assert conn.b.remote_recv_addr == conn.a.recv_buf.base
    # The exchanged rkeys validate against the peer's MR table.
    conn.b.node.nic.mr_table.validate_remote(
        conn.a.rkey_remote, conn.a.remote_recv_addr, 64)
    conn.a.node.nic.mr_table.validate_remote(
        conn.b.rkey_remote, conn.b.remote_recv_addr, 64)


@pytest.mark.parametrize("location,space", [("gpu", MemorySpace.GPU_DRAM),
                                            ("host", MemorySpace.HOST_DRAM)])
def test_ib_queue_buffers_placed_as_requested(location, space):
    cluster = build_ib_cluster()
    conn = setup_ib_connection(cluster, 4 * KIB, buffer_location=location)
    for end in (conn.a, conn.b):
        amap = end.node.address_map
        assert amap.space_of(end.qp.sq_buffer.base) is space
        assert amap.space_of(end.qp.send_cq.buffer.base) is space


def test_ib_qps_connected_rts():
    from repro.ib import QpState
    cluster = build_ib_cluster()
    conn = setup_ib_connection(cluster, 4 * KIB)
    assert conn.a.qp.state is QpState.RTS
    assert conn.b.qp.state is QpState.RTS
    assert conn.a.qp.remote_qp_num == conn.b.qp.qp_num


def test_bad_inputs_rejected():
    cluster = build_extoll_cluster()
    with pytest.raises(BenchmarkError):
        setup_extoll_connections(cluster, 4 * KIB, 0)
    with pytest.raises(BenchmarkError):
        setup_extoll_connection(cluster, 4 * KIB, notification_location="tape")
    cluster2 = build_ib_cluster()
    with pytest.raises(BenchmarkError):
        setup_ib_connection(cluster2, 4 * KIB, buffer_location="tape")
    with pytest.raises(BenchmarkError):
        setup_ib_connections(cluster2, 4 * KIB, 0)


def test_many_connections_allocate_disjoint_resources():
    cluster = build_extoll_cluster()
    conns = setup_extoll_connections(cluster, 4 * KIB, 8)
    pages = {c.a.port.page_addr for c in conns}
    bufs = {c.a.send_buf.base for c in conns} | {c.a.recv_buf.base for c in conns}
    assert len(pages) == 8
    assert len(bufs) == 16
