"""Benchmark-regression harness: record baselines, check runs against them.

Every canonical scenario (:mod:`repro.perf.scenarios`) produces *metrics*
and *invariants*.  ``record`` serializes them to ``BENCH_<NAME>.json`` at
the repository root; ``check`` re-runs the scenario and compares, metric by
metric, with per-kind tolerance bands:

``sim``
    Simulated-time quantities (latencies, bandwidths, ratios).  The
    simulator is deterministic, so these must agree to
    :data:`SIM_TOLERANCE` — effectively exact; the band only absorbs
    float-formatting round trips.
``count``
    Event/step/retransmit counts.  Exact by default.
``wallclock``
    Host-dependent quantities (seconds of real time, simulated events per
    second).  Never exact; the check only *warns* when throughput falls
    below :data:`WALLCLOCK_FLOOR` of the baseline, and only fails when the
    caller opts into ``strict_wallclock`` (CI machines vary too much for
    a hard default).

Invariants are verdicts (:class:`~repro.analysis.invariants.Verdict`)
re-evaluated on the fresh run; the baseline stores each one's name and
outcome.  A fresh failure is always a regression, whatever the baseline
said.

The comparison report is designed to be read in a CI log: one line per
deviation with the values, the relative error, and the band it violated.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..analysis.invariants import Check, Verdict

#: Bump when the baseline file layout changes incompatibly; ``check``
#: refuses to compare across schema versions.
SCHEMA_VERSION = 1

#: Relative tolerance for ``sim``-kind metrics (deterministic simulator:
#: this only needs to absorb JSON float round-tripping).
SIM_TOLERANCE = 1e-3

#: A wall-clock throughput below this fraction of the baseline draws a
#: warning (or a failure under ``strict_wallclock``).
WALLCLOCK_FLOOR = 0.25

_DEFAULT_TOLERANCE = {"sim": SIM_TOLERANCE, "count": 0.0}


@dataclass(frozen=True)
class Metric:
    """One scenario measurement."""

    value: float
    kind: str = "sim"              # "sim" | "count" | "wallclock"
    unit: str = ""
    tol: Optional[float] = None    # relative band; None -> default by kind

    def tolerance(self) -> Optional[float]:
        if self.tol is not None:
            return self.tol
        return _DEFAULT_TOLERANCE.get(self.kind)  # wallclock -> None

    def to_dict(self) -> dict:
        out = {"value": self.value, "kind": self.kind}
        if self.unit:
            out["unit"] = self.unit
        if self.tol is not None:
            out["tol"] = self.tol
        return out

    @staticmethod
    def from_dict(d: dict) -> "Metric":
        return Metric(value=d["value"], kind=d.get("kind", "sim"),
                      unit=d.get("unit", ""), tol=d.get("tol"))


@dataclass
class ScenarioResult:
    """What one scenario run produced."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    verdicts: List[Verdict] = field(default_factory=list)
    #: Documentary JSON (curves, sweeps) carried into the baseline file
    #: under ``"extra"``.  ``check`` only compares ``metrics`` and
    #: ``verdicts``, so extra payloads never gate — they exist so a
    #: committed baseline doubles as a data artifact (e.g. the offered-load
    #: vs achieved-throughput saturation curve behind a knee metric).
    extra: Dict[str, object] = field(default_factory=dict)

    def metric(self, name: str, value: float, kind: str = "sim",
               unit: str = "", tol: Optional[float] = None) -> None:
        self.metrics[name] = Metric(value, kind, unit, tol)

    def invariant(self, name: str, check: Check) -> None:
        """Record an ``(ok, detail)`` pair from
        :mod:`repro.analysis.invariants` as the verdict ``name``."""
        self.verdicts.append(Verdict(name, *check))


@dataclass(frozen=True)
class Scenario:
    """A registered benchmark scenario."""

    name: str
    description: str
    run: Callable[[], ScenarioResult]
    quick: bool = True  # included in ``--quick`` (CI smoke) runs

    @property
    def baseline_filename(self) -> str:
        return "BENCH_" + self.name.upper().replace("-", "_") + ".json"


# -- baseline files -------------------------------------------------------------

def baseline_path(scenario: Scenario, root: str) -> str:
    return os.path.join(root, scenario.baseline_filename)


def record(scenario: Scenario, root: str,
           result: Optional[ScenarioResult] = None,
           recorded_at: Optional[str] = None) -> str:
    """Run ``scenario`` (unless ``result`` is supplied) and write its
    baseline file; returns the path."""
    result = result if result is not None else scenario.run()
    doc = {
        "schema": SCHEMA_VERSION,
        "scenario": scenario.name,
        "description": scenario.description,
        "recorded_at": recorded_at,
        "metrics": {k: m.to_dict() for k, m in sorted(result.metrics.items())},
        "invariants": dict(sorted((v.name, bool(v.ok))
                                  for v in result.verdicts)),
    }
    if result.extra:
        doc["extra"] = result.extra
    path = baseline_path(scenario, root)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def load_baseline(scenario: Scenario, root: str) -> dict:
    path = baseline_path(scenario, root)
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: baseline schema {doc.get('schema')!r} != "
            f"supported {SCHEMA_VERSION} — re-record with "
            f"'python -m repro bench --record'")
    return doc


# -- checking -------------------------------------------------------------------

@dataclass(frozen=True)
class Deviation:
    """One comparison line: a metric delta or an invariant verdict."""

    name: str
    status: str        # "ok" | "regression" | "warning" | "new" | "missing"
    detail: str


@dataclass
class CheckReport:
    scenario: str
    deviations: List[Deviation] = field(default_factory=list)
    error: Optional[str] = None   # missing/unreadable baseline etc.

    @property
    def regressions(self) -> List[Deviation]:
        return [d for d in self.deviations if d.status == "regression"]

    @property
    def warnings(self) -> List[Deviation]:
        return [d for d in self.deviations if d.status == "warning"]

    @property
    def ok(self) -> bool:
        return self.error is None and not self.regressions

    def render(self, verbose: bool = False) -> str:
        counts = {}
        for d in self.deviations:
            counts[d.status] = counts.get(d.status, 0) + 1
        summary = ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
        head = (f"{'FAIL' if not self.ok else 'ok  '} {self.scenario}"
                + (f"  ({summary})" if summary else ""))
        lines = [head]
        if self.error:
            lines.append(f"    ERROR   {self.error}")
        for d in self.deviations:
            if d.status == "ok" and not verbose:
                continue
            lines.append(f"    {d.status.upper():<11}{d.name}: {d.detail}")
        return "\n".join(lines)


def _compare_metric(name: str, base: Metric, cur: Optional[Metric],
                    strict_wallclock: bool) -> Deviation:
    if cur is None:
        return Deviation(name, "regression",
                         "present in baseline but missing from this run")
    denom = max(abs(base.value), 1e-12)
    rel = abs(cur.value - base.value) / denom
    unit = f" {base.unit}" if base.unit else ""
    if base.kind == "wallclock":
        # Direction by unit: rates ("…/s") collapse downward, durations
        # (seconds) blow up upward.  Getting faster is always fine.
        higher_is_better = base.unit.endswith("/s")
        collapsed = (cur.value < base.value * WALLCLOCK_FLOOR
                     if higher_is_better
                     else cur.value > base.value / WALLCLOCK_FLOOR)
        if collapsed:
            status = "regression" if strict_wallclock else "warning"
            return Deviation(name, status,
                             f"{cur.value:.4g}{unit} vs baseline "
                             f"{base.value:.4g}{unit} — outside the "
                             f"{WALLCLOCK_FLOOR:g}x wallclock band")
        return Deviation(name, "ok",
                         f"{cur.value:.4g}{unit} vs baseline "
                         f"{base.value:.4g}{unit} (wallclock, informational)")
    tol = base.tolerance() or 0.0
    if rel > tol:
        return Deviation(name, "regression",
                         f"{base.value:.6g} -> {cur.value:.6g}{unit} "
                         f"({rel * 100:+.3f}% rel, tolerance {tol * 100:g}%)")
    return Deviation(name, "ok",
                     f"{cur.value:.6g}{unit} (rel err {rel * 100:.4f}%)")


def check(scenario: Scenario, root: str,
          result: Optional[ScenarioResult] = None,
          strict_wallclock: bool = False) -> CheckReport:
    """Run ``scenario`` fresh (unless ``result`` is supplied) and compare
    against its recorded baseline."""
    report = CheckReport(scenario=scenario.name)
    try:
        baseline = load_baseline(scenario, root)
    except FileNotFoundError:
        report.error = (f"no baseline {scenario.baseline_filename} — "
                        f"record one with 'python -m repro bench --record'")
        return report
    except ValueError as exc:
        report.error = str(exc)
        return report

    result = result if result is not None else scenario.run()
    base_metrics = {k: Metric.from_dict(v)
                    for k, v in baseline.get("metrics", {}).items()}
    for name in sorted(base_metrics):
        report.deviations.append(_compare_metric(
            name, base_metrics[name], result.metrics.get(name),
            strict_wallclock))
    for name in sorted(result.metrics):
        if name not in base_metrics:
            m = result.metrics[name]
            report.deviations.append(Deviation(
                name, "new", f"{m.value:.6g} {m.unit} — not in baseline "
                             f"(re-record to pin it)"))

    base_inv = baseline.get("invariants", {})
    fresh = {v.name: v for v in result.verdicts}
    for name in sorted(set(base_inv) | set(fresh)):
        verdict = fresh.get(name)
        if verdict is None:
            report.deviations.append(Deviation(
                f"invariant:{name}", "missing",
                "in baseline but not evaluated by this run"))
        else:
            report.deviations.append(Deviation(
                f"invariant:{name}", "ok" if verdict.ok else "regression",
                verdict.detail))
    return report


def render_reports(reports: List[CheckReport], verbose: bool = False) -> str:
    lines = [r.render(verbose) for r in reports]
    failed = [r.scenario for r in reports if not r.ok]
    total_reg = sum(len(r.regressions) for r in reports)
    if failed:
        lines.append(f"FAILED: {len(failed)}/{len(reports)} scenario(s) "
                     f"({total_reg} regression(s)): {', '.join(failed)}")
    else:
        lines.append(f"all {len(reports)} scenario(s) within tolerance")
    return "\n".join(lines)
