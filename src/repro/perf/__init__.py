"""Performance engineering for the reproduction itself.

Two instruments, built on the observability layer:

* the **cost-attribution profiler** (:mod:`repro.perf.profiler`) — carves
  a measured ping-pong into WQE-generation / doorbell-MMIO / wire /
  data-DMA / completion-MMIO / completion-polling components by interval
  arithmetic over the span trace, reconciling exactly against the
  driver's own end-to-end timing (``python -m repro trace``);
* the **benchmark-regression harness** (:mod:`repro.perf.harness` +
  :mod:`repro.perf.scenarios`) — canonical deterministic scenarios whose
  metrics and shape invariants are pinned in ``BENCH_<NAME>.json``
  baselines at the repository root (``python -m repro bench
  --record/--check``).
"""

from .harness import (
    SCHEMA_VERSION,
    WALLCLOCK_FLOOR,
    CheckReport,
    Deviation,
    Metric,
    Scenario,
    ScenarioResult,
    baseline_path,
    check,
    load_baseline,
    record,
    render_reports,
)
from .profiler import (
    PHASE_ORDER,
    ModeProfile,
    PhaseCost,
    attribute_phases,
    profile_from_trace,
    profile_pingpong,
    render_profile,
)
from .scenarios import SCENARIOS, get_scenarios

__all__ = [
    "CheckReport",
    "Deviation",
    "Metric",
    "ModeProfile",
    "PHASE_ORDER",
    "PhaseCost",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioResult",
    "WALLCLOCK_FLOOR",
    "attribute_phases",
    "baseline_path",
    "check",
    "get_scenarios",
    "load_baseline",
    "profile_from_trace",
    "profile_pingpong",
    "record",
    "render_profile",
    "render_reports",
]
