"""Two counts of the same discrete events must agree exactly.

Every check that compares counts — the engine's three-way counter
reconciliation, the chaos harness's retransmit books, the flight-recorder
dump reconciliation, the workloads histogram count, the MPI chain count —
fails on 255 vs 256, which the 1% rule for float quantities would pass.
"""

from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.analysis.faults import reconcile_retransmits
from repro.analysis.invariants import counts_match, reconciles
from repro.mpi.bench import chains_reconcile
from repro.obs import InstantRecord, MetricsRegistry, SpanRecord
from repro.perf.scenarios import counter_verdicts
from repro.telemetry.cli import dump_reconciliation
from repro.workloads.generator import reconcile


def test_counts_match_is_exact_where_reconciles_is_not():
    assert not counts_match("x", 255, 256).ok
    assert counts_match("x", 256, 256).ok
    assert reconciles("x", 255, 256).ok   # why counts need their own rule


ENGINE_CHECKS = ("nic-doorbell-counter", "nic-descriptor-counter",
                 "trace-doorbell-counter", "trace-wr-counter")


@pytest.mark.parametrize("off_by_one", ENGINE_CHECKS)
def test_engine_counter_checks_fail_on_one_lost_event(off_by_one):
    counts = {name: 256 for name in ENGINE_CHECKS}
    counts[off_by_one] = 255
    nic = SimpleNamespace(batch_doorbells=counts["nic-doorbell-counter"],
                          batch_descriptors=counts["nic-descriptor-counter"])
    metrics = MetricsRegistry()
    metrics.counter("rma.batch_doorbells").inc(
        counts["trace-doorbell-counter"])
    metrics.counter("rma.wr_triggers").inc(counts["trace-wr-counter"])
    stats = SimpleNamespace(batches=256, wrs=256)
    failed = [v.name for v in counter_verdicts(nic, stats, metrics)
              if not v.ok]
    assert failed == [off_by_one]


def test_retransmit_reconcile_fails_on_one_lost_event():
    retransmit = InstantRecord("fault", "retransmit", "rel", 0.0)
    tracer = SimpleNamespace(instants=[retransmit] * 255)
    assert not reconcile_retransmits(
        tracer, SimpleNamespace(retransmits=256)).ok
    assert reconcile_retransmits(
        tracer, SimpleNamespace(retransmits=255)).ok


def test_dump_reconciliation_fails_on_one_missing_span():
    spans = [SpanRecord(i, None, "phase", "work", "t", float(i),
                        float(i) + 0.5, 0) for i in range(256)]
    dump = {"spans": [asdict(s) for s in spans]}
    assert dump_reconciliation(dump, spans).ok
    assert not dump_reconciliation(dump, spans[1:]).ok


def test_workloads_histogram_count_fails_on_one_lost_request():
    recorder = SimpleNamespace(metrics=MetricsRegistry())
    hist = recorder.metrics.histogram("span.workload.request")
    for _ in range(255):
        hist.observe(1e-6)
    result = SimpleNamespace(latencies=(1e-6,) * 256)
    recon = reconcile(result, recorder)
    assert recon["sum_err"] < 0.01        # the sum alone would pass
    assert not recon["ok"]


def test_mpi_chain_count_fails_on_one_lost_chain():
    # Ring all-reduce on 2 ranks fires 4 chains a round: 64 rounds -> 256.
    assert chains_reconcile(256, "ring", 2, 64)["ok"]
    assert not chains_reconcile(255, "ring", 2, 64)["ok"]
