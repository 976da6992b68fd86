"""Error containment in the RMA unit: a bad descriptor fails only its own
per-WR or per-packet process — the run call raises it as the model's RMA
error notification — and never kills the hardware pipelines."""

import pytest

from repro.cluster import build_extoll_cluster
from repro.core import setup_extoll_connection
from repro.errors import TranslationError
from repro.extoll import NotificationCursor, NotifyFlags, RmaOp, RmaWorkRequest, \
    rma_post, rma_wait_notification
from repro.sim import join_result
from repro.units import KIB, US


def test_put_with_unregistered_nla_records_async_error():
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)

    def sender(ctx):
        wr = RmaWorkRequest(op=RmaOp.PUT, port=conn.a.port.port_id, dst_node=1,
                            src_nla=0x6000_DEAD_0000,  # never registered
                            dst_nla=conn.b.recv_nla.base, size=64,
                            flags=NotifyFlags.NONE)
        yield from rma_post(ctx, conn.a.port.page_addr, wr)

    proc = conn.a.node.cpu.spawn(sender)
    cluster.sim.run_until_complete(proc, limit=1.0)
    with pytest.raises(TranslationError) as info:
        cluster.sim.run(until=cluster.sim.now + 100 * US)
    assert "'extoll0.put'" in str(info.value.__cause__)


def test_put_to_unregistered_remote_nla_errors_at_completer():
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)

    def sender(ctx):
        wr = RmaWorkRequest(op=RmaOp.PUT, port=conn.a.port.port_id, dst_node=1,
                            src_nla=conn.a.send_nla.base,
                            dst_nla=0x6000_BEEF_0000, size=64,
                            flags=NotifyFlags.NONE)
        yield from rma_post(ctx, conn.a.port.page_addr, wr)

    proc = conn.a.node.cpu.spawn(sender)
    cluster.sim.run_until_complete(proc, limit=1.0)
    with pytest.raises(TranslationError) as info:
        cluster.sim.run(until=cluster.sim.now + 200 * US)
    # The origin side is clean — the fault is at the destination's ATU.
    assert "'extoll1.cmpl-put'" in str(info.value.__cause__)
    assert "more failure" not in str(info.value.__cause__)


def test_unit_survives_bad_descriptor_and_keeps_working():
    """After a faulting put, a good put on the same port still completes."""
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)
    conn.a.node.gpu.dram.write(conn.a.send_buf.base, b"OK" * 32)

    def sender(ctx):
        bad = RmaWorkRequest(op=RmaOp.PUT, port=conn.a.port.port_id, dst_node=1,
                             src_nla=0x6000_DEAD_0000,
                             dst_nla=conn.b.recv_nla.base, size=64,
                             flags=NotifyFlags.NONE)
        yield from rma_post(ctx, conn.a.port.page_addr, bad)
        yield from ctx.sleep(20 * US)
        good = RmaWorkRequest(op=RmaOp.PUT, port=conn.a.port.port_id,
                              dst_node=1, src_nla=conn.a.send_nla.base,
                              dst_nla=conn.b.recv_nla.base, size=64,
                              flags=NotifyFlags.REQUESTER)
        yield from rma_post(ctx, conn.a.port.page_addr, good)
        yield from rma_wait_notification(ctx, conn.a.requester_cursor())

    proc = conn.a.node.cpu.spawn(sender)
    with pytest.raises(TranslationError):
        cluster.sim.run_until_complete(proc, limit=1.0)
    # The run raised at its exit, after the good put's notification.
    join_result(proc)
    cluster.sim.run(until=cluster.sim.now + 200 * US)
    assert conn.b.node.gpu.dram.read(conn.b.recv_buf.base, 64) == b"OK" * 32
