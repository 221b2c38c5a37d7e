#!/usr/bin/env python3
"""Closed-loop benchmark of minordet: one caller, one case at a time.

    python3 perfbench/run.py --workload fuzz-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one process each

Run from the repository root; minordet is imported from src/.  A run repeats
the workload's fixed, seeded case list until --seconds have passed (at least
MIN_PASSES times).  Every verdict is checked against its known answer
outside the timed span.

Timings are at the reference speed of reference.py.  Other tenants of the
host slow every CPU-bound loop for stretches that can outlast a run, so each
pass runs a fixed amount of reference work around each case, half before
and half after it, and divides the case's time by how much slower than
reference.UNIT_S a unit of that work ran.  Untraced passes call a case back
to back until CASE_S seconds have gone into it, so sub-millisecond calls get
enough repeats, and take the mean of those calls.  wall_s is the median over
the passes of the sum of the scaled case times (one call of each case);
verdict_ms.p50 / .p90 are percentiles over the cases of each case's median
scaled time.  setup_s is the median of SETUPS_PER_PASS set-ups (import
minordet and build the case list) after every pass, each in a fresh
interpreter so that this process's memory and timings stay its own, and
each scaled by reference work run around it.

The metric names and units printed are those BENCHMARK.json lists.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half with spans around minordet's layers (see tracing.py),
prints the per-layer metrics per pass of the case list, and writes the spans
of the last traced pass to perfbench/out/.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every verdict matched, 1 when one did not, 2 when the run could not
start (for instance when src/minordet is missing).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"

MIN_PASSES = 3
MIN_TRACE_PASSES = 2  # for each half of a traced run
CASE_S = 0.005  # back-to-back calls per case and pass, untraced runs only
STOP_AFTER_S = 120.0  # stop adding passes even before MIN_PASSES
TAIL_SAMPLES = 10  # a percentile is backed when this many samples lie beyond it
GAUGE_SHARE = 0.25  # reference work around each case, as a share of the case's first-pass time
SETUPS_PER_PASS = 3  # set-ups timed after each pass of an untraced run
SETUP_GAUGE_UNITS = 25  # reference units run before and again after a timed set-up
# One set-up in a fresh interpreter: argv is the benchmark directory, the workload and the seed.
SETUP_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import run; print(*run.gauged_setup(sys.argv[2], int(sys.argv[3])))"


class StartupError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def nearest_rank(samples: list[float], q: int) -> float:
    """The q-th percentile by nearest rank: the ceil(q*n/100)-th smallest sample."""
    ordered = sorted(samples)
    rank = -(-q * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def highest_tail_percentile(n: int, beyond: int = TAIL_SAMPLES) -> int | None:
    """Highest whole percentile with at least `beyond` of n samples above it, or None."""
    for q in range(99, 0, -1):
        if n - -(-q * n // 100) >= beyond:
            return q
    return None


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric units by name, as BENCHMARK.json lists them."""
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise StartupError(f"cannot read {SPEC}: {exc}") from exc
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_minordet():
    """Import minordet from src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        return importlib.import_module("minordet")
    except ImportError as exc:
        raise StartupError(f"cannot import minordet from {SRC}: {exc}") from exc


def setup(workload: str, seed: int):
    """Import minordet and build the seeded case list; (seconds, module, cases)."""
    t0 = time.perf_counter()
    md = load_minordet()
    cases = workloads.WORKLOADS[workload](md, seed)
    return time.perf_counter() - t0, md, cases


def gauged_setup(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, slowdown): the slowdown is the reference unit's time
    around the set-up over reference.UNIT_S."""
    before = reference.run_units(SETUP_GAUGE_UNITS)
    seconds = setup(workload, seed)[0]
    after = reference.run_units(SETUP_GAUGE_UNITS)
    return seconds, (before + after) / (2 * SETUP_GAUGE_UNITS) / reference.UNIT_S


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time at the reference speed, in a fresh interpreter, which
    leaves this process's memory untouched."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE), workload, str(seed)],
                          stdout=subprocess.PIPE, text=True, check=True)
    seconds, slowdown = map(float, proc.stdout.split())
    return seconds / slowdown


class Passes:
    """Case times of repeated passes over one case list, and verdict counts."""

    def __init__(self, ncases: int):
        self.case_s: list[list[float]] = [[] for _ in range(ncases)]  # per pass: mean call time
        self.slowdown: list[list[float]] = [[] for _ in range(ncases)]  # per pass: unit time / reference.UNIT_S
        self.pass_s: list[float] = []  # per pass: the sum of its call times
        self.attempted = 0
        self.failed = 0

    def _scaled(self) -> list[list[float]]:
        return [[t / s for t, s in zip(times, slow)] for times, slow in zip(self.case_s, self.slowdown)]

    def scaled_pass_s(self) -> float:
        """Median over the passes of one call of every case, at the reference speed."""
        return statistics.median(math.fsum(times) for times in zip(*self._scaled()))

    def scaled_case_s(self) -> list[float]:
        """Each case's median time at the reference speed."""
        return [statistics.median(times) for times in self._scaled()]


def run_passes(cases, seconds: float, min_passes: int = 1, case_s: float = 0.0, tracer=None, on_pass=None) -> Passes:
    """Run the case list again and again, one case at a time.

    Within a pass each case is called back to back until its calls have
    taken case_s seconds (at least once), so that a call of well under a
    millisecond gets enough repeats; its time in the pass is the mean call
    time.  A pass's time is the sum of its call times; checks run between
    calls, outside the timed span and with the tracer paused.  Reference
    work runs around each case, half before and half after it: as many
    units as take GAUGE_SHARE of the case's first-pass time at the
    reference speed, rounded up to an even number (in the first pass both
    halves run after the case).  The case's slowdown in the pass is their
    mean unit time over reference.UNIT_S.  Stops once `seconds` have passed
    and at least min_passes passes ran, or after STOP_AFTER_S; always runs
    at least one pass.
    """
    out = Passes(len(cases))
    halves = [0] * len(cases)  # reference units before and again after each case
    start = time.perf_counter()
    while True:
        total = 0.0
        for i, case in enumerate(cases):
            before = reference.run_units(halves[i]) if halves[i] else 0.0
            spent, calls = _call(case, out, tracer), 1
            while spent < case_s:
                spent, calls = spent + _call(case, out, tracer), calls + 1
            out.case_s[i].append(spent / calls)
            total += spent
            if not halves[i]:  # first pass: size the gauge
                halves[i] = -(-reference.units_for(spent, GAUGE_SHARE) // 2)
                before = reference.run_units(halves[i])
            after = reference.run_units(halves[i])
            out.slowdown[i].append((before + after) / (2 * halves[i]) / reference.UNIT_S)
        out.pass_s.append(total)
        if on_pass:
            on_pass()
        ran = time.perf_counter() - start
        if ran >= STOP_AFTER_S or (ran >= seconds and len(out.pass_s) >= min_passes):
            return out


def _call(case, out: Passes, tracer) -> float:
    """One timed call of a case, then its check; returns the call time."""
    t0 = time.perf_counter()
    try:
        result = tracer.call("case", case.run) if tracer else case.run()
        error = None
    except Exception as exc:  # a refusal or crash is a failed verdict
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    out.attempted += 1
    if tracer:
        tracer.active = False
    try:
        problem = error or case.check(result)
    finally:
        if tracer:
            tracer.active = True
    del result
    if problem:
        out.failed += 1
        print(f"WRONG {case.label}: {problem}", file=sys.stderr)
    return elapsed


def end_to_end(passes: Passes, setup_s: list[float]) -> dict[str, float]:
    case_ms = [t * 1000.0 for t in passes.scaled_case_s()]
    return {
        "wall_s": passes.scaled_pass_s(),
        "verdict_ms.p50": nearest_rank(case_ms, 50),
        "verdict_ms.p90": nearest_rank(case_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_s),
    }


def per_layer(workload, seed, md, cases, seconds, names) -> tuple[dict[str, float], Passes, Passes]:
    """Half the time untraced, half traced; layer totals per traced pass."""
    untraced = run_passes(cases, seconds / 2, MIN_TRACE_PASSES)
    tracer = tracing.Tracer()
    totals: dict[str, float] = {}
    last: list = []

    def collect():
        nonlocal last
        last = tracer.take()
        for key, value in tracing.aggregate(last).items():
            totals[key] = totals.get(key, 0.0) + value

    tracer.install()
    try:
        traced = run_passes(cases, seconds / 2, MIN_TRACE_PASSES, tracer=tracer, on_pass=collect)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(last, OUT / f"spans-{workload}-seed{seed}.jsonl")

    n = len(traced.pass_s)
    metrics = {name: totals.get(name, 0.0) / n for name in names}
    compounds = totals.get("exactmat.det_bareiss.compound.calls", 0.0)
    metrics["exactmat.det_bareiss.compound.bits"] = (
        totals.get("exactmat.det_bareiss.compound.bits", 0.0) / compounds if compounds else 0.0
    )
    trials, degenerate = workloads.degenerate_trials(md, cases)
    metrics["oracle.trials"] = float(trials)
    metrics["oracle.degenerate_frac"] = degenerate / trials if trials else 0.0
    metrics["trace.wall_s"] = statistics.fmean(traced.pass_s)
    metrics["trace.overhead_frac"] = traced.scaled_pass_s() / untraced.scaled_pass_s() - 1.0
    return metrics, untraced, traced


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    end_to_end_units, per_layer_units = metric_units()
    _, md, cases = setup(workload, seed)
    print(f"workload {workload}: {len(cases)} cases per pass, seed {seed}")
    if trace:
        units = per_layer_units
        values, untraced, traced = per_layer(workload, seed, md, cases, seconds, units)
        runs = (untraced, traced)
        wall = values["trace.wall_s"]
        for name, value in values.items():
            if name.endswith(".busy_s") and wall:
                print(f"share {name[: -len('.busy_s')]} = {value / wall:.4f} of trace.wall_s")
    else:
        setup_s: list[float] = []

        def time_setups():
            setup_s.extend(child_setup_s(workload, seed) for _ in range(SETUPS_PER_PASS))

        runs = (run_passes(cases, seconds, MIN_PASSES, CASE_S, on_pass=time_setups),)
        values = end_to_end(runs[0], setup_s)
        units = end_to_end_units
        tail = highest_tail_percentile(len(cases))
        backed = f"p{tail}" if tail else f"none, since only {len(cases)} cases"
        print(f"verdict_ms: {len(cases)} case times, each the median over {len(runs[0].pass_s)} passes; "
              f"highest percentile with {TAIL_SAMPLES} cases beyond it: {backed}")
        slowdowns = sorted(s for case in runs[0].slowdown for s in case)
        print(f"slowdown against the reference speed: median {statistics.median(slowdowns):.3f}, "
              f"range {slowdowns[0]:.3f} to {slowdowns[-1]:.3f}")
        print(f"setup_s: median of {len(setup_s)} set-ups")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"passes {'+'.join(str(len(r.pass_s)) for r in runs)}, fail_frac = {failed / attempted} ratio")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process of its own, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except StartupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
