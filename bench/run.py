#!/usr/bin/env python3
"""Benchmark of the put/get simulator: host time, memory and throughput on
four workloads, with the host time attributed to each ``repro`` package.

    python3 bench/run.py                          # all four workloads
    python3 bench/run.py --workload paper-smallmsg --seed 11 --trace 0
    python3 bench/run.py --smoke                  # tiny sizes, one repetition
    python3 bench/run.py --record --seed 7        # rewrite bench/reference/

Run it from the repository root; it imports the simulator from ``src/``.
With ``--workload`` the workload runs in this process: a warm-up pass at
smoke sizes, timed repetitions with profiling off until ``--seconds`` are
used (at least three), then with ``--trace 1`` one more repetition under
cProfile.  Without ``--workload`` each workload runs that way in its own
child process, one after another.  Every repetition's modeled outputs are
checked against the first repetition, the cells' own checks, and the
committed reference in ``bench/reference/``.  The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

# The simulator is single-threaded; keep numpy's thread pools out of the
# measurement.  numpy also asks for transparent huge pages on large arrays;
# whether the kernel grants them varies from run to run, and a 2 MiB page
# touched once for a few bytes of simulated DRAM made peak RSS flip between
# two modes 15 MiB apart, so the benchmark turns that request off.
for _var, _value in (("OMP_NUM_THREADS", "1"), ("OPENBLAS_NUM_THREADS", "1"),
                     ("MKL_NUM_THREADS", "1"),
                     ("NUMPY_MADVISE_HUGEPAGE", "0")):
    os.environ.setdefault(_var, _value)
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    raise SystemExit(f"bench: no simulator sources under {ROOT / 'src'}; "
                     f"run the benchmark from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

from cells import WORKLOADS, Outcome  # noqa: E402
from layers import (LAYERS, Recorder, attribute,  # noqa: E402
                    write_chrome_trace)

#: Timed repetitions a run makes however short ``--seconds`` is.
MIN_REPS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "sim_msgs_per_host_s": "1/s"}

#: Setup kinds, one per family of builder calls.
SETUP_KINDS = ("cluster", "connection", "fabric", "workload")

#: Modeled counters summed over every cell of a repetition.  Simulated
#: times carry the unit ``sim_us`` to keep them apart from host time.
SUMMED_COUNTERS = {"gpu.instructions": "count", "gpu.sysmem_reads": "count",
                   "pcie.bytes": "B", "extoll.packets": "count",
                   "ib.packets": "count", "network.packets": "count",
                   "fabrics.packets": "count",
                   "fabrics.credit_stalls": "count",
                   "fabrics.credit_stall_us": "sim_us"}

#: Per-layer host time is given as shares of ``trace.profiled_s``, so a
#: layer a workload never enters reads 0 % rather than a constant 0 s.
PER_LAYER = {
    **{f"{layer}.{m}": unit for layer in LAYERS
       for m, unit in (("share_pct", "%"), ("calls", "count"))},
    "trace.profiled_s": "s", "trace.overhead_pct": "%",
    "sim.events": "count", "sim.host_ns_per_event": "ns",
    "sim.calls_per_event": "calls/event",
    **{f"setup.{kind}_pct": "%" for kind in SETUP_KINDS},
    **SUMMED_COUNTERS,
    "gpu.l2_hit_ratio": "ratio",
    "workloads.wait_us_mean": "sim_us", "workloads.p99_us": "sim_us",
}


# -- reference outputs --------------------------------------------------------

def _reference_prefix(smoke: bool) -> str:
    return "smoke-seed" if smoke else "seed"


def load_reference(workload: str, seed: int, smoke: bool,
                   reference_dir: Path = REFERENCE_DIR) -> Dict[str, dict]:
    """Expected outputs per cell for ``seed``.

    A seed without a record of its own is held to the cells whose outputs
    do not depend on the seed: those every recorded seed agrees on (at
    least two records are needed to tell).
    """
    prefix = _reference_prefix(smoke)
    recorded = {}
    for path in sorted(reference_dir.glob(f"{prefix}*.json")):
        tail = path.stem[len(prefix):]
        if tail.isdigit():
            recorded[int(tail)] = json.loads(path.read_text()).get(
                workload, {})
    if seed in recorded:
        return recorded[seed]
    if len(recorded) < 2:
        return {}
    first, *rest = recorded.values()
    return {cell: out for cell, out in first.items()
            if all(other.get(cell) == out for other in rest)}


def mismatches(outputs: Dict[str, dict], expected: Dict[str, dict],
               source: str) -> Dict[str, List[str]]:
    """Per cell, one line for every field that differs from ``expected``."""
    found: Dict[str, List[str]] = {}
    for cell, want in expected.items():
        got = outputs.get(cell)
        if got is None:     # the cell raised; that is reported already
            continue
        for name in sorted(set(want) | set(got)):
            if got.get(name) != want.get(name):
                found.setdefault(cell, []).append(
                    f"cell {cell}: field {name}: {source} "
                    f"{want.get(name)!r}, got {got.get(name)!r}")
    return found


# -- repetitions --------------------------------------------------------------

@dataclass
class Rep:
    index: int
    outcomes: Dict[str, Outcome]
    outputs: Dict[str, dict]        # JSON-normalised modeled outputs
    problems: Dict[str, List[str]]  # failing cell or check -> messages
    attempted: int

    def fail(self, key: str, lines: List[str]) -> None:
        self.problems.setdefault(key, []).extend(lines)


def run_rep(workload, plan, rec: Recorder, index: int) -> Rep:
    """Run every cell of ``plan`` once, then the workload's checks."""
    rep = Rep(index, {}, {}, {}, 0)
    rec.begin_rep(index)
    for cell_id, fn in plan:
        try:
            outcome = rec.run_cell(cell_id, fn)
        except Exception as exc:  # one broken cell must not end the run
            rep.fail(cell_id, [f"cell {cell_id}: raised "
                               f"{type(exc).__name__}: {exc}"])
            continue
        finally:
            # A finished cell's simulator is cyclic garbage; collect it
            # outside the timed spans so no cell pays for its predecessor.
            gc.collect()
        rep.outcomes[cell_id] = outcome
        rep.outputs[cell_id] = json.loads(json.dumps(outcome.outputs))
        if not outcome.ok:
            rep.fail(cell_id, [f"cell {cell_id}: own check failed: "
                               f"{outcome.detail}"])
    rec.end_rep()
    try:
        checks = workload.checks(rep.outputs)
    except KeyError as exc:
        checks = [("checks", False, f"no output {exc} to check")]
    for name, ok, detail in checks:
        if not ok:
            rep.fail(f"check:{name}", [f"check {name}: {detail}"])
    rep.attempted = len(plan) + len(checks)
    return rep


def _median(values) -> float:
    return statistics.median(values)


def summed_medians(rec: Recorder, timed: List[Rep], kind: str,
                   cells) -> float:
    """Host seconds of ``kind`` per repetition, as the sum over ``cells``
    of each cell's median across the timed repetitions: a burst of host
    noise slows a few cells of one repetition, and per-cell medians drop
    it where a median of repetition totals would not."""
    return sum(_median(rec.seconds(r.index, kind, cell) for r in timed)
               for cell in cells)


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False,
            reference_dir: Path = REFERENCE_DIR) -> dict:
    """Measure one workload in this process; returns the full result."""
    workload = WORKLOADS[name]
    rec = Recorder()
    reps: List[Rep] = []

    def checked(rep: Rep, expected: Dict[str, dict], source: str) -> Rep:
        for cell, lines in mismatches(rep.outputs, expected, source).items():
            rep.fail(cell, lines)
        reps.append(rep)
        return rep

    smoke_plan = workload.cells(seed, True)
    plan = smoke_plan if smoke else workload.cells(seed, False)
    reference = load_reference(name, seed, smoke, reference_dir)
    if not smoke:
        # Untimed warm-up at smoke sizes: imports and lazy set-up finish
        # and every code path runs once before the clock starts.
        checked(run_rep(workload, smoke_plan, rec, 0),
                load_reference(name, seed, True, reference_dir),
                "smoke reference")
    timed: List[Rep] = []
    start = time.perf_counter()
    while True:
        rep = checked(run_rep(workload, plan, rec, len(reps)), reference,
                      "reference")
        if timed:
            for cell, lines in mismatches(rep.outputs, timed[0].outputs,
                                          "first repetition").items():
                rep.fail(cell, lines)
        timed.append(rep)
        totals = [rec.seconds(r.index, "rep") for r in timed]
        if smoke or (len(timed) >= MIN_REPS and time.perf_counter() - start
                     + _median(totals) > seconds):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = timed[0]
    cells = [cell for cell, _ in plan]
    drive = [rec.seconds(r.index, "drive") for r in timed]
    ops = sum(o.ops for o in first.outcomes.values())
    wall_s = summed_medians(rec, timed, "drive", cells)
    end_to_end = {"wall_s": wall_s,
                  "setup_s": summed_medians(rec, timed, "setup", cells),
                  "peak_rss_mib": peak_rss_mib,
                  "sim_msgs_per_host_s": ops / wall_s}

    per_layer = None
    coverage = None
    if trace:
        rec.profile = True
        traced = checked(run_rep(workload, plan, rec, len(reps)),
                         first.outputs, "untraced repetition")
        rec.profile = False
        attr = attribute(rec.profiles.values())
        coverage = attr.coverage
        per_layer = _per_layer(rec, cells, timed, traced, attr)

    attempted = sum(r.attempted for r in reps)
    failed = sum(len(r.problems) for r in reps)
    messages = list(dict.fromkeys(line for r in reps
                                  for lines in r.problems.values()
                                  for line in lines))
    result = {
        "workload": name, "seed": seed, "smoke": smoke, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "ops_failed_pct": 100.0 * failed / attempted,
        "failures": messages,
        "reps": len(timed), "rep_wall_s": drive,
        "cell_drive_s": {c: [rec.seconds(r.index, "drive", c) for r in timed]
                         for c in cells},
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in end_to_end.items()},
        "per_layer": per_layer, "layer_coverage": coverage,
        "outputs": first.outputs,
    }
    if workload.model_error is not None:
        try:
            result["model_err_pct"] = workload.model_error(first.outputs)
        except KeyError:
            result["model_err_pct"] = None
    result["spans"] = rec.spans
    return result


def _per_layer(rec: Recorder, cells: List[str], timed: List[Rep],
               traced: Rep, attr) -> dict:
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.share_pct"] = attr.share_pct(layer)
        values[f"{layer}.calls"] = attr.calls[layer]
    values["trace.profiled_s"] = attr.total_s
    untraced = _median(rec.seconds(r.index, "rep") for r in timed)
    values["trace.overhead_pct"] = 100.0 * (
        rec.seconds(traced.index, "rep") / untraced - 1.0)

    # Events and host time per event cover the cells whose simulators the
    # benchmark built (the table programs build their own).
    owned = [c for c, o in timed[0].outcomes.items() if o.events is not None]
    events = sum(timed[0].outcomes[c].events for c in owned)
    values["sim.events"] = events
    values["sim.host_ns_per_event"] = 1e9 * summed_medians(
        rec, timed, "drive", owned) / max(events, 1)
    traced_owned = [c for c in owned if c in traced.outcomes]
    traced_events = sum(traced.outcomes[c].events for c in traced_owned)
    traced_calls = sum(pstats.Stats(rec.profiles[c]).total_calls
                       for c in traced_owned)
    values["sim.calls_per_event"] = traced_calls / max(traced_events, 1)
    setup = summed_medians(rec, timed, "setup", cells)
    for kind in SETUP_KINDS:
        values[f"setup.{kind}_pct"] = 100.0 * summed_medians(
            rec, timed, f"setup.{kind}", cells) / setup

    outputs = timed[0].outputs.values()
    for key in SUMMED_COUNTERS:
        values[key] = sum(o.get(key, 0) for o in outputs)
    requests = sum(o.get("gpu.l2_read_requests", 0) for o in outputs)
    values["gpu.l2_hit_ratio"] = (sum(o.get("gpu.l2_read_hits", 0)
                                      for o in outputs) / requests
                                  if requests else 0.0)
    waits = [o["workloads.wait_us_mean"] for o in outputs
             if "workloads.wait_us_mean" in o]
    values["workloads.wait_us_mean"] = statistics.fmean(waits) if waits \
        else 0.0
    values["workloads.p99_us"] = max((o["workloads.p99_us"] for o in outputs
                                      if "workloads.p99_us" in o),
                                     default=0.0)
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


# -- output -------------------------------------------------------------------

def contract_line(result: dict) -> dict:
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(result: dict, out=sys.stdout) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['reps']} timed repetition(s)"
          f"{', smoke sizes' if result['smoke'] else ''}) ==", file=out)
    walls = result["rep_wall_s"]
    print(f"  wall_s per repetition: median {_fmt(_median(walls))}, "
          f"min {_fmt(min(walls))}, max {_fmt(max(walls))} "
          f"(n={len(walls)})", file=out)
    blocks = [("end-to-end", result["end_to_end"])]
    if result["per_layer"]:
        blocks.append(("per-layer", result["per_layer"]))
    for title, metrics in blocks:
        print(f"  {title}:", file=out)
        for key, m in metrics.items():
            print(f"    {key:<28} {_fmt(m['value']):>14} {m['unit']}",
                  file=out)
    print(f"    {'ops_failed_pct':<28} {_fmt(result['ops_failed_pct']):>14} "
          f"% ({result['failed']} of {result['attempted']} cells and "
          f"checks)", file=out)
    if result.get("model_err_pct") is not None:
        print(f"    {'model_err_pct':<28} "
              f"{_fmt(result['model_err_pct']):>14} % (Tables I/II and "
              f"single-op counts vs the paper; latency and bandwidth curves "
              f"have no reference and are unvalidated)", file=out)
    if result["layer_coverage"] is not None:
        print(f"    named layers cover {100 * result['layer_coverage']:.1f}% "
              f"of profiled host time", file=out)
    for line in result["failures"][:20]:
        print(f"  FAIL {line}", file=out)
    if len(result["failures"]) > 20:
        print(f"  ... {len(result['failures']) - 20} more failures",
              file=out)


def write_result(result: dict, out_dir: Path) -> Path:
    stem = (f"{result['workload']}-seed{result['seed']}"
            f"{'-smoke' if result['smoke'] else ''}")
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = result.pop("spans")
    if result["trace"]:
        write_chrome_trace(out_dir / f"{stem}.trace.json", spans,
                           {"workload": result["workload"],
                            "seed": result["seed"]})
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1))
    return path


# -- commands -----------------------------------------------------------------

def record(names: List[str], seed: int, smoke: bool,
           reference_dir: Path = REFERENCE_DIR) -> int:
    """Store one repetition's outputs per workload as the reference."""
    path = reference_dir / f"{_reference_prefix(smoke)}{seed}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        workload = WORKLOADS[name]
        rep = run_rep(workload, workload.cells(seed, smoke), Recorder(), 0)
        if rep.problems:
            for lines in rep.problems.values():
                for line in lines:
                    print(f"FAIL {line}", file=sys.stderr)
            print(f"bench: {name} fails its own checks; reference not "
                  f"written", file=sys.stderr)
            return 1
        table[name] = dict(sorted(rep.outputs.items()))
        print(f"recorded {name}: {len(rep.outputs)} cells")
    reference_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def run_children(args) -> int:
    """Each workload in its own child process, one at a time."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(args.out)] + (["--smoke"] if args.smoke else [])
        last = ""
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            for line in child.stdout:
                if last:
                    print(last, flush=True)
                last = line.rstrip("\n")
        try:
            line = json.loads(last)
        except json.JSONDecodeError:
            print(last)
            print(f"bench: {name} exited {child.returncode} without a "
                  f"result", file=sys.stderr)
            return 1
        merged["correct"] &= line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        for key, metric in line["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: "
                             "all, each in a child process)")
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed (default 7; 11 is held out)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of timed repetitions per "
                             "workload (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add a cProfile'd repetition and report "
                             "per-layer metrics (default 1)")
    parser.add_argument("--out", type=Path, default=OUT_DIR,
                        help="directory for result files and Chrome traces "
                             "(default bench/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition, no warm-up")
    parser.add_argument("--record", action="store_true",
                        help="write this seed's outputs to bench/reference/ "
                             "instead of measuring")
    args = parser.parse_args(argv)

    if args.record:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return record(names, args.seed, args.smoke)
    if args.workload is None:
        return run_children(args)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.smoke)
    write_result(result, args.out)
    print_report(result)
    print(json.dumps(contract_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
