"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one type.  Subsystems raise the most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation engine."""


class DeadlockError(SimulationError):
    """The simulator ran out of events while processes were still waiting."""


class MemoryError_(ReproError):
    """Base class for memory-subsystem errors (trailing underscore: the
    builtin ``MemoryError`` means the interpreter is out of memory, which is
    not what these signal)."""


class AddressError(MemoryError_):
    """An access touched an unmapped or out-of-range address."""


class AllocationError(MemoryError_):
    """An allocator could not satisfy a request."""


class TranslationError(MemoryError_):
    """Address translation (ATU / page table) failed."""


class PcieError(ReproError):
    """PCIe fabric misconfiguration or routing failure."""


class GpuError(ReproError):
    """GPU model misuse (bad launch geometry, unmapped UVA address, ...)."""


class LaunchError(GpuError):
    """Invalid kernel launch configuration."""


class NetworkError(ReproError):
    """Network fabric errors (unknown destination, link down, ...)."""


class NicError(ReproError):
    """Base class for NIC-model errors."""


class RmaError(NicError):
    """EXTOLL RMA unit errors (bad descriptor, queue overflow, ...)."""


class NotificationOverflowError(RmaError):
    """An EXTOLL notification queue overflowed because entries were not
    consumed and freed in time (the failure mode §III-A warns about)."""


class VerbsError(NicError):
    """InfiniBand Verbs errors (bad WR, QP in wrong state, ...)."""


class QpStateError(VerbsError):
    """Operation attempted on a queue pair in an incompatible state."""


class RegistrationError(NicError):
    """Memory registration failed or a key/NLA did not validate."""


class FaultError(ReproError):
    """Base class for fault-injection and reliability-layer errors."""


class RetryExhaustedError(FaultError):
    """A reliability engine gave up after its retransmission budget: the
    peer never acknowledged despite exponential-backoff retries."""


class TriggeredError(NicError):
    """Misuse of the triggered-operations layer (arming a fired chain,
    ticking an unknown counter, overflowing a staged channel, ...)."""


class MpiError(ReproError):
    """Misuse of the MPI-shaped layer (bad rank/tag, request reuse,
    communicator driven after shutdown, ...)."""


class ConfigError(ReproError):
    """Invalid configuration parameters."""


class BenchmarkError(ReproError):
    """A benchmark harness was driven with inconsistent arguments."""


class CausalError(ReproError):
    """The causal DAG could not be assembled or walked (missing flow
    events, a dead-ended critical path, an unreconcilable request)."""
