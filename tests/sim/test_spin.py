"""The one spin loop: exact backoff arithmetic, budget errors, traced spans,
and the claim that the paper's latency-path waits never back off."""

import pytest

from repro.analysis.tables import table1_extoll_polling, table2_ib_buffers
from repro.cpu import Cpu, HostThread
from repro.errors import ConfigError, GpuError
from repro.gpu.thread import ThreadCtx
from repro.memory import HOST_DRAM_BASE
from repro.obs import SpanTracer
from repro.sim import join_result, set_default_tracer
from repro.sim.spin import GPU_BACKOFF, HOST_BACKOFF, spin


def test_backoff_schedules_are_the_inline_formulas():
    assert HostThread.BACKOFF is HOST_BACKOFF
    assert ThreadCtx.BACKOFF is GPU_BACKOFF
    for polls in range(257, 3000):
        assert HOST_BACKOFF.delay(polls) == min(
            0.2e-6 * (2 ** ((polls - 256) // 64)), 20e-6)
    for polls in range(65, 3000):
        assert GPU_BACKOFF.delay(polls) == min(
            1e-6 * (2 ** ((polls - 64) // 32)), 50e-6)


@pytest.mark.parametrize("n", [1, 256, 257, 300, 1000, 2000])
def test_host_spin_out_of_budget_replays_the_float_sum(node, n):
    """The sim time at the budget error is the loop's float additions, in
    the loop's order: a poll's latency, then (after every miss but the
    last, past 256 misses) the backoff gap.  A fast-forward must match it
    with ``==``."""
    cpu = Cpu(node.sim)
    cpu.attach(node.fabric.root, node.host)

    def body(ctx):
        try:
            yield from spin(ctx, ctx._poll_u64,
                            (HOST_DRAM_BASE, lambda v: False, True), n,
                            ConfigError, "spin at {0:#x}")
        except ConfigError as exc:
            return ctx.sim.now, str(exc)

    proc = cpu.spawn(body)
    node.sim.run()
    raised_at, message = join_result(proc)

    t = 0.0
    for polls in range(1, n + 1):
        t += cpu.config.cached_poll_latency
        if polls < n and polls > 256:
            t += min(0.2e-6 * (2 ** ((polls - 256) // 64)), 20e-6)
    assert raised_at == t
    assert message == f"spin at {HOST_DRAM_BASE:#x} exceeded {n} polls"


def test_traced_wait_out_of_budget_ends_its_span_with_the_error(node):
    tracer = SpanTracer(node.sim, categories={"gpu.spin"})
    node.sim.set_tracer(tracer)
    ctx = ThreadCtx(node.gpu, 0, 0, 1, 1)
    buf = node.gpu.malloc(64)

    def body():
        yield from spin(ctx, ctx._poll_u64, (buf.base, lambda v: v == 1), 70,
                        GpuError, "spin_until_u64 at {0:#x}",
                        ("gpu.spin", "spin", {"addr": "{0:#x}"}),
                        "gpu.spin_polls")

    node.sim.process(body())
    with pytest.raises(GpuError,
                       match=f"spin_until_u64 at {buf.base:#x} exceeded 70 "
                             f"polls"):
        node.sim.run()
    [span] = tracer.spans
    assert (span.category, span.name) == ("gpu.spin", "spin")
    assert span.attrs == {"addr": hex(buf.base), "polls": 70,
                          "error": "poll budget exhausted"}
    assert span.end == node.sim.now
    assert "gpu.spin_polls" not in tracer.metrics.histograms()


def test_table_waits_end_before_backoff():
    """README: the waits behind Tables I and II never reach backoff, so
    their counters are free of the backoff compromise."""
    tracer = SpanTracer(categories={"gpu.spin", "rma.poll", "ib.poll"})
    set_default_tracer(tracer)
    try:
        table1_extoll_polling()
        table2_ib_buffers()
    finally:
        set_default_tracer(None)
    hists = tracer.metrics.histograms()
    for name in ("gpu.spin_polls", "rma.notification_polls",
                 "ib.gpu_cq_polls"):
        assert hists[name].count > 0
        assert hists[name].max <= GPU_BACKOFF.after, (name, hists[name].max)
