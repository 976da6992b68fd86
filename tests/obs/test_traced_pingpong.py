"""End-to-end: trace a ping-pong run, export it, reconcile the phases.

This is the tentpole acceptance check as a test: a traced 64 B ping-pong
must yield a structurally valid Chrome trace whose summed WR-generation /
polling span durations match the driver's own ``LatencyPoint.post_time`` /
``poll_time`` within 1% — in every mode ``trace`` accepts, since every
mode's ping side is the same ``ping_rounds`` skeleton.
"""

import json

import pytest

from repro.obs import chrome_trace_events, reconcile_with_point, validate_chrome_trace
from repro.obs.cli import main as trace_main, pingpong_modes, run_traced_pingpong

ITER, WARMUP = 8, 2

#: Every (fabric, mode) pair the ``trace`` subcommand runs.
MODES = [(fabric, mode) for fabric in ("extoll", "ib")
         for mode in pingpong_modes(fabric)]


def mode_id(param):
    """``direct``, ..., ``ib-hostControlled``: EXTOLL is trace's default."""
    fabric, mode = param
    name = mode.replace("dev2dev-", "")
    return name if fabric == "extoll" else f"ib-{name}"


@pytest.fixture(scope="module")
def traced_direct():
    return run_traced_pingpong("extoll", "dev2dev-direct", 64, ITER, WARMUP)


@pytest.fixture(scope="module", params=MODES, ids=mode_id)
def traced_mode(request):
    return run_traced_pingpong(*request.param, 64, ITER, WARMUP)


def test_phases_reconcile_within_one_percent(traced_mode):
    tracer, point = traced_mode
    res = reconcile_with_point(tracer, point, ITER)
    assert res["ok"], res
    for phase in ("wr-generation", "polling"):
        assert res["phases"][phase]["rel_err"] <= 0.01


def test_phase_span_count_matches_measured_iterations(traced_mode):
    tracer, _ = traced_mode
    # One span per measured iteration, warmup excluded.
    assert len(tracer.spans_named("wr-generation")) == ITER
    assert len(tracer.spans_named("polling")) == ITER


def test_trace_covers_every_layer(traced_direct):
    tracer, _ = traced_direct
    cats = {s.category for s in tracer.spans}
    # GPU posts the WR, the NIC requester/completer move it, PCIe and the
    # wire carry it: the timeline must show all of them.
    assert {"phase", "bench", "rma", "rma.api", "pcie", "net", "dma"} <= cats
    # The benchmark drivers must close every span they open; hardware spans
    # may legitimately still be in flight when the simulation completes
    # (e.g. the pong side's final MWr TLP), and those are simply not
    # exported.
    assert not [s for s in tracer.open_spans()
                if s.category in ("phase", "bench", "rma.api", "ib.api")]


def test_chrome_export_is_structurally_valid(traced_direct):
    tracer, _ = traced_direct
    events = chrome_trace_events(tracer)
    validate_chrome_trace(events)
    ph = [e["ph"] for e in events]
    assert ph.count("B") == ph.count("E") == len(tracer.spans)
    assert ph.count("i") == len(tracer.instants)
    per_tid_last = {}
    for e in events:
        if e["ph"] == "M":
            continue
        assert e["ts"] >= per_tid_last.get(e["tid"], 0.0)
        per_tid_last[e["tid"]] = e["ts"]


def test_metrics_capture_wire_traffic(traced_direct):
    tracer, _ = traced_direct
    snap = tracer.metrics.snapshot()
    assert snap["rma.puts"] > 0
    assert snap["net.wire_bytes"] > 0
    assert snap["pcie.wire_bytes"] > 0


def test_trace_cli_writes_valid_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    rc = trace_main(["--mode", "dev2dev-direct", "--size", "64",
                     "--iterations", "6", "--warmup", "1",
                     "--out", str(out), "--timeline", "--timeline-limit", "5"])
    assert rc == 0
    doc = json.loads(out.read_text())
    validate_chrome_trace(doc["traceEvents"])
    text = capsys.readouterr().out
    assert "[PASS] reconcile wr-generation: " in text


def test_trace_cli_ib_fabric(tmp_path):
    out = tmp_path / "trace.json"
    rc = trace_main(["--fabric", "ib", "--mode", "dev2dev-bufOnHost",
                     "--size", "64", "--iterations", "6", "--warmup", "1",
                     "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    validate_chrome_trace(doc["traceEvents"])
    names = {e["name"] for e in doc["traceEvents"]}
    assert "doorbell" in names and "wqe-exec" in names


def test_trace_cli_rejects_unknown_mode():
    with pytest.raises(SystemExit):
        trace_main(["--mode", "no-such-mode", "--out", "/dev/null"])


def test_category_filter_restricts_trace():
    tracer, _ = run_traced_pingpong("extoll", "dev2dev-direct", 64, 4, 1)
    from repro.obs import SpanTracer
    filtered = SpanTracer(categories=["phase"])
    filtered, _ = run_traced_pingpong("extoll", "dev2dev-direct", 64, 4, 1,
                                      filtered)
    assert {s.category for s in filtered.spans} == {"phase"}
    assert len(filtered.spans) < len(tracer.spans)
