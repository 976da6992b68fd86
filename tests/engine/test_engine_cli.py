"""End-to-end smoke for ``python -m repro engine``."""

import json

from repro.engine.cli import main


def test_quick_sweep_passes_all_invariants(capsys, tmp_path):
    trace = tmp_path / "engine.json"
    rc = main(["--quick", "--per-connection", "16", "--iterations", "8",
               "--warmup", "2", "--out", str(trace)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "[PASS] mmio-coalescing: " in out
    assert "[PASS] span-reconcile-polling: " in out
    assert "FAIL" not in out
    # The traced rate run was exported as a loadable Chrome trace.
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e.get("name") == "batch-doorbell" for e in events)


def test_dispatch_from_package_main(capsys, tmp_path):
    """``python -m repro engine`` routes to the engine CLI."""
    from repro.__main__ import main as repro_main

    rc = repro_main(["engine", "--quick", "--per-connection", "16",
                     "--iterations", "6", "--warmup", "1"])
    assert rc == 0, capsys.readouterr().out
