"""Verdicts: what a check result is, when two numbers agree, and how every
check is printed and serialized.

A :class:`Verdict` is one named check result.  Every subcommand builds its
checks as verdicts, prints them with :func:`render` and serializes them
with :func:`to_json`; the benchmark harness stores them too.
:func:`reconciles` (two views of one float quantity agree within
:data:`RECONCILE_TOLERANCE`), :func:`counts_match` (two counts of the same
discrete events are equal) and :func:`identical` (two runs' outputs are
bit-identical) build verdicts from numbers.

The shape helpers answer the paper's qualitative claims with an
``(ok, detail)`` pair, named by the caller as ``Verdict(name, *check)``:
GPU-posted puts cost roughly twice a host-posted put (Fig. 1/2), polling on
system memory dwarfs polling on device memory (Fig. 3 / Table I), and
bandwidth sags once messages outgrow the pinned staging window (Fig. 1b).
Raw numbers drift when a cost model is retuned; these shapes must not.
The module imports no simulator code.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, List, Mapping, Sequence, Tuple

#: An ``(ok, detail)`` pair, as the shape helpers return it.
Check = Tuple[bool, str]

#: The one relative-agreement bound: two views of the same quantity agree
#: when they differ by at most 1% of the expected value.
RECONCILE_TOLERANCE = 0.01


@dataclass(frozen=True)
class Verdict:
    """One named check result."""

    name: str
    ok: bool
    detail: str


def render(verdicts: Iterable[Verdict]) -> str:
    """One ``[PASS] name: detail`` / ``[FAIL] name: detail`` line each."""
    return "\n".join(f"[{'PASS' if v.ok else 'FAIL'}] {v.name}: {v.detail}"
                     for v in verdicts)


def to_json(verdicts: Iterable[Verdict]) -> List[dict]:
    """The ``--json`` form: ``[{"name": ..., "ok": ..., "detail": ...}]``."""
    return [asdict(v) for v in verdicts]


def relative_error(observed: float, expected: float) -> float:
    """``|observed - expected| / |expected|``; when ``expected`` is zero,
    0.0 if ``observed`` is zero too and infinity otherwise."""
    if expected == 0:
        return 0.0 if observed == 0 else float("inf")
    return abs(observed - expected) / abs(expected)


def _agreement(observed: float, expected: float, tolerance: float) -> Check:
    err = relative_error(observed, expected)
    if expected == 0:
        return err <= tolerance, f"observed {observed:g}, expected exactly 0"
    return err <= tolerance, (f"observed {observed:g} vs expected "
                              f"{expected:g} ({err * 100:.2f}% off, allowed "
                              f"{tolerance * 100:g}%)")


def reconciles(label: str, observed: float, expected: float) -> Verdict:
    """Two views of the same float quantity (a span-time sum, a latency)
    must agree within :data:`RECONCILE_TOLERANCE` relative error (exactly,
    when ``expected`` is zero)."""
    return Verdict(label, *_agreement(observed, expected,
                                      RECONCILE_TOLERANCE))


def counts_match(label: str, observed: int, expected: int) -> Verdict:
    """Two counts of the same discrete events (doorbells, retransmits,
    spans) must be equal: one lost event fails, however large the counts —
    the 1% rule of :func:`reconciles` would pass 255 of 256."""
    ok = observed == expected
    return Verdict(label, ok, f"observed {observed}, expected exactly "
                              f"{expected}")


def identical(label: str, a: Mapping[str, object],
              b: Mapping[str, object]) -> Verdict:
    """Two runs' named outputs must be equal, bit for bit.  A failure names
    the first output of ``a`` that differs in ``b`` (and, for sequences,
    the first differing index)."""
    for key, x in a.items():
        y = b[key]
        if x == y:
            continue
        if isinstance(x, (list, tuple)) and isinstance(y, (list, tuple)):
            i = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q),
                     None)
            if i is None:
                return Verdict(label, False, f"{key} differs: {len(x)} vs "
                                             f"{len(y)} items")
            key, x, y = f"{key}[{i}]", x[i], y[i]
        return Verdict(label, False, f"{key} differs: {x!r} vs {y!r}")
    return Verdict(label, True, f"bit-identical: {', '.join(a)}")


def within(value: float, lo: float, hi: float, label: str = "value") -> Check:
    """Is ``value`` inside the closed band ``[lo, hi]``?"""
    ok = lo <= value <= hi
    return ok, f"{label}={value:.4g} {'in' if ok else 'OUTSIDE'} [{lo:g}, {hi:g}]"


def two_x_gap(gpu_latency: float, host_latency: float) -> Check:
    """The paper's headline: a GPU-controlled put/get round costs about
    twice a host-controlled one (§V-A1, Fig. 1a).  The ratio must lie in
    [1.5x, 3x] — a model retune may move it, but if GPU posting ever
    becomes *cheaper* than host posting the reproduction is broken."""
    if host_latency <= 0:
        return False, "host latency is zero — gap undefined"
    ratio = gpu_latency / host_latency
    ok = 1.5 <= ratio <= 3.0
    return ok, (f"gpu/host latency ratio {ratio:.2f}x "
                f"{'in' if ok else 'OUTSIDE'} [1.5x, 3x]")


def faster_than(fast: float, slow: float,
                fast_label: str = "fast", slow_label: str = "slow") -> Check:
    """Strict ordering between two latencies (e.g. Fig. 4a: bufOnGPU beats
    bufOnHost for small messages because polling stays on the GPU die)."""
    ok = fast < slow
    return ok, (f"{fast_label} {fast:.4g} "
                f"{'<' if ok else '>='} {slow_label} {slow:.4g}")


def bandwidth_drops_after_peak(
        mb_per_s_by_size: Sequence[Tuple[int, float]]) -> Check:
    """Fig. 1b/4b: bandwidth rises with message size, peaks, then *drops*
    for multi-MiB messages (the >1 MiB staging/registration penalty).  The
    last point must sit at least 2% below the peak."""
    if len(mb_per_s_by_size) < 2:
        return False, "need at least two (size, MB/s) points"
    points = sorted(mb_per_s_by_size)
    peak_size, peak = max(points, key=lambda p: p[1])
    last_size, last = points[-1]
    if peak_size == last_size:
        return False, (f"bandwidth still climbing at {last_size}B "
                       f"({last:.1f} MB/s) — no large-message drop")
    drop = 1.0 - last / peak
    ok = drop >= 0.02
    return ok, (f"peak {peak:.1f} MB/s @ {peak_size}B, last {last:.1f} MB/s "
                f"@ {last_size}B ({drop * 100:.1f}% drop, need >= 2%)")


def sysmem_polling_dominates(sysmem_ratio: float,
                             devmem_ratio: float) -> Check:
    """Fig. 3 / §V-A3: the poll-to-post ratio when completions land in
    system memory must exceed the device-memory ratio AND stay large in
    absolute terms (the paper measures ~10x; the model reproduces the
    multiple-x regime, bounded below by 3x)."""
    ok = sysmem_ratio > devmem_ratio and sysmem_ratio >= 3.0
    return ok, (f"poll/post sysmem {sysmem_ratio:.2f}x vs devmem "
                f"{devmem_ratio:.2f}x (need sysmem > devmem and >= 3x)")


def rate_at_least(rate: float, floor: float, rate_label: str = "rate",
                  floor_label: str = "floor") -> Check:
    """Throughput ordering: ``rate`` must meet or beat ``floor`` (e.g. the
    offload engine's 32-connection message rate vs dev2dev-hostControlled
    — losing to the CPU proxy would defeat the engine's purpose)."""
    ok = rate >= floor
    return ok, (f"{rate_label} {rate:.4g} "
                f"{'>=' if ok else '<'} {floor_label} {floor:.4g}")


def at_most(value: float, ceiling: float, value_label: str = "value",
            ceiling_label: str = "ceiling") -> Check:
    """Ordering toward zero: ``value`` must not exceed ``ceiling`` (e.g.
    the triggered layer's host-side MMIO count vs the offload engine's
    batched floor — the whole point of counter-fired chains is to sit AT OR
    BELOW what even perfect coalescing can reach)."""
    ok = value <= ceiling
    return ok, (f"{value_label} {value:.4g} "
                f"{'<=' if ok else 'EXCEEDS'} {ceiling_label} {ceiling:.4g}")


def mmio_coalesced(doorbells: int, descriptors: int, batch_size: int,
                   timeout_flushes: int = 0, lanes: int = 1) -> Check:
    """Doorbell coalescing's defining bound: posting N descriptors with
    batches of ``batch_size`` may ring at most ``ceil(N / batch_size)``
    doorbells plus one per timeout-forced flush — and, since batches never
    span connections, one extra partial-batch tail per additional lane
    (``sum_c ceil(N_c/B) <= ceil(N/B) + L - 1``).  More means the batcher
    leaked MMIO writes; the configured batch factor did not materialize."""
    if batch_size < 1:
        return False, f"batch_size must be >= 1, got {batch_size}"
    if lanes < 1:
        return False, f"lanes must be >= 1, got {lanes}"
    bound = -(-descriptors // batch_size) + timeout_flushes + lanes - 1
    ok = doorbells <= bound
    return ok, (f"{doorbells} doorbells for {descriptors} descriptors "
                f"over {lanes} lane(s) {'<=' if ok else 'EXCEEDS'} "
                f"ceil(N/{batch_size})+{timeout_flushes} timeouts"
                f"+{lanes - 1} tails = {bound}")


def reliability_is_free(reliable_latency: float, bare_latency: float,
                        max_overhead: float = 0.10) -> Check:
    """At zero loss the retransmission engines may cost at most
    ``max_overhead`` relative latency (sequence headers + ACK traffic);
    anything more means the fault layer is taxing the fast path."""
    if bare_latency <= 0:
        return False, "bare latency is zero — overhead undefined"
    overhead = reliable_latency / bare_latency - 1.0
    ok = overhead <= max_overhead
    return ok, (f"reliable/bare overhead {overhead * 100:+.2f}% "
                f"(allowed <= {max_overhead * 100:g}%)")
