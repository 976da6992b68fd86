"""Service-scale workloads: open-loop traffic over the put/get stacks.

The paper benchmarks one operation at a time in a closed loop; this
package asks the service-scale question instead — what do p50/p99/p999
look like when requests arrive on their own clock?  Four application
workloads (data-parallel training step, MoE all-to-all, KV-cache
handover, parameter-server fan-in) are written once in a three-word op
vocabulary and executed under four control modes (hostControlled,
dev2dev-direct, offload engine, triggered MPI), driven by seeded Poisson
or bursty arrival processes.  ``python -m repro workloads`` sweeps the
grid and judges the results against declarative SLOs.
"""

from .apps import WORKLOADS, Workload, get_workload
from .arrivals import (
    ARRIVALS,
    ArrivalProcess,
    BurstyArrivals,
    MAX_BURST,
    PoissonArrivals,
    arrival_process,
)
from .generator import (
    KNEE_EFFICIENCY,
    RunResult,
    WorkloadRun,
    WorkloadStats,
    exact_percentile,
    reconcile,
)
from .transport import MODES, WorkloadTransport, validate_cell

__all__ = [
    "ARRIVALS",
    "ArrivalProcess",
    "BurstyArrivals",
    "KNEE_EFFICIENCY",
    "MAX_BURST",
    "MODES",
    "PoissonArrivals",
    "RunResult",
    "WORKLOADS",
    "Workload",
    "WorkloadRun",
    "WorkloadStats",
    "WorkloadTransport",
    "arrival_process",
    "exact_percentile",
    "get_workload",
    "reconcile",
    "validate_cell",
]
