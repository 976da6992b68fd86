"""Chrome-trace <-> counter reconciliation with the reliability layer armed.

Bridges the observability and fault-injection test suites: run a lossy
collective with ``reliable=True`` channels, a ``FaultPlan`` attached, and a
``SpanTracer`` installed, then require the three books to balance:

* ``fault/retransmit`` instants in the trace == the reliability engines'
  retransmit counters == the ``faults.retransmits`` metric,
* ``fault/drop`` (+ ``corrupt``/``delay``) instants == the injector's
  per-link ``fault.<link>.<what>`` counters == its Python-side totals,
* the exported Chrome trace stays structurally valid with all of the
  above embedded.

The run itself must still be *correct* — reliability recovers every drop.
"""

import json

import pytest

from repro.analysis.faults import reconcile_retransmits, run_chaos_point
from repro.collectives.comm import CollectiveMode
from repro.obs import (
    SpanTracer,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)

LOSS = 0.05


@pytest.fixture(scope="module")
def lossy_run():
    tracer = SpanTracer()
    point, comm, injector = run_chaos_point(
        CollectiveMode.POLL_ON_GPU, 64, loss=LOSS, tracer=tracer)
    return tracer, point, comm, injector


def _instants(tracer, name):
    return [i for i in tracer.instants
            if i.category == "fault" and i.name == name]


def test_run_is_correct_and_actually_faulty(lossy_run):
    _, point, _, injector = lossy_run
    assert point.correct
    assert injector.drops > 0, "5% loss produced no drops — test is vacuous"
    assert point.retransmits > 0


def test_retransmit_instants_match_engine_counters(lossy_run):
    tracer, point, comm, _ = lossy_run
    recon = reconcile_retransmits(tracer, comm)
    assert recon.ok, recon.detail
    assert comm.retransmits == point.retransmits
    assert tracer.metrics.snapshot()["faults.retransmits"] == point.retransmits


def test_drop_instants_match_per_link_counters(lossy_run):
    tracer, _, _, injector = lossy_run
    snap = tracer.metrics.snapshot()
    for what, total in (("drop:loss", injector.drops),
                        ("corrupt", injector.corruptions)):
        traced = len(_instants(tracer, what))
        counted = sum(v for k, v in snap.items()
                      if k.startswith("fault.") and k.endswith(f".{what}")
                      and isinstance(v, int))
        assert traced == counted == total


def test_chrome_trace_valid_with_faults_embedded(lossy_run, tmp_path):
    tracer, _, _, _ = lossy_run
    events = chrome_trace_events(tracer)
    validate_chrome_trace(events)
    path = tmp_path / "lossy.json"
    write_chrome_trace(tracer, str(path))
    doc = json.loads(path.read_text())
    fault_events = [e for e in doc["traceEvents"]
                    if e.get("cat") == "fault"]
    assert fault_events, "fault instants missing from the exported trace"
    # The embedded metrics snapshot must agree with the live registry.
    assert doc["otherData"]["metrics"]["faults.retransmits"] == \
        tracer.metrics.snapshot()["faults.retransmits"]


def test_snapshot_diff_isolates_second_run(lossy_run):
    """A second lossy run on the same tracer diffs cleanly: the per-run
    retransmit delta matches the second run's own count (the registry is
    shared and never reset)."""
    tracer, _, _, _ = lossy_run
    before = tracer.metrics.snapshot()
    point2, comm2, _ = run_chaos_point(
        CollectiveMode.POLL_ON_GPU, 64, loss=LOSS, seed=7,
        tracer=tracer)
    delta = tracer.metrics.diff(before)
    assert point2.correct
    assert delta["faults.retransmits"] == point2.retransmits
    assert tracer.metrics.snapshot()["faults.retransmits"] == \
        before["faults.retransmits"] + point2.retransmits
