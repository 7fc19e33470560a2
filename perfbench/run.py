"""Benchmark of the ``polytoric`` verifier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 45 --trace 0

It imports the package from ``src/`` in this process, with no threads.
Set-up (a fresh import of the package plus what the workload's passes
reuse) is repeated and its median reported as ``setup_s``.  Then whole
passes over the workload's seeded inputs run until ``--seconds`` have
gone by, each operation timed alone and its result checked against the
correctness gate outside the timing.  Timing metrics are taken per pass
and reported as their median over the passes.  With ``--trace 1``
half the time runs untraced and half under the outside tracer, and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when one failed and 2 when the package
cannot be found or imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# Largest gap allowed between the outside toric_generators span and the
# report's own toric_generators_ms, as a share of the latter.
TORIC_GAP_SHARE = 0.01
clock = time.perf_counter


def fresh_import() -> SimpleNamespace:
    """Drop every loaded polytoric module and import the package again."""
    for name in [n for n in sys.modules if n == "polytoric" or n.startswith("polytoric.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        m: importlib.import_module(f"polytoric.{m}") for m in tracer.MODULES + ("errors",)
    })


def make_workload(name: str, work_dir: Path):
    golden = workloads.load_golden()
    if name == "verify_frame":
        return workloads.VerifyFrame(golden)
    return workloads.OracleSweep(golden, work_dir)


def measure(workload, seconds: float, trace=None) -> SimpleNamespace:
    """Whole passes until ``seconds`` have gone by (at least one)."""
    passes, failed, stages = [], 0, {}
    op_id = 0
    start = clock()
    while not passes or clock() - start < seconds:
        times = []
        for op in workload.ops():
            op_id += 1
            if trace is not None:
                trace.op = op_id
            try:
                t0 = clock()
                result = workload.run_op(op)
                times.append(clock() - t0)
                if trace is not None:
                    trace.op = None
                ok = workload.check(op, result)
                timings = workload.stages(result)
                if timings is not None:
                    stages[op_id] = dict(timings)
            except Exception:
                traceback.print_exc()
                ok = False
            failed += not ok
        passes.append(times)
    if trace is not None:
        trace.op = None
    return SimpleNamespace(passes=passes, failed=failed,
                           attempted=sum(len(p) for p in passes), stages=stages)


def pass_wall(phase) -> float:
    """Median over passes of the time the package spent on one pass (the
    sum of its op times)."""
    return statistics.median(sum(p) for p in phase.passes)


def end_to_end(phase, setup_times) -> dict:
    wall = pass_wall(phase)
    ops_per_pass = phase.attempted / len(phase.passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "ops_per_s": (1 - phase.failed / phase.attempted) * ops_per_pass / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(workload, pkg, seconds: float):
    """Untraced then traced passes; returns (phases, metrics, problems)."""
    plain = measure(workload, seconds / 2)
    trace = tracer.Tracer()
    with trace:
        workload.setup(pkg)
        traced = measure(workload, seconds / 2, trace)
    metrics = tracer.layer_metrics(trace.spans, len(traced.passes), traced.stages)
    overhead = pass_wall(traced) - pass_wall(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / pass_wall(plain)

    fired = {s[tracer.NAME] for s in trace.spans}
    problems = [f"predicted span {name} never fired"
                for name in workload.spans if name not in fired]
    for op, timings in traced.stages.items():
        missing = set(tracer.STAGE_KEYS) - set(timings)
        if missing:
            problems.append(f"report of op {op} lacks stages {sorted(missing)}")
    for op, gap in tracer.toric_gaps(trace.spans, traced.stages).items():
        if abs(gap) > TORIC_GAP_SHARE * traced.stages[op]["toric_generators_ms"]:
            problems.append(f"op {op}: toric_generators span and report differ by {gap:.3f} ms")
    return (plain, traced), metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_frame", "oracle_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "polytoric" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'polytoric'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_dir = ROOT / ".perfbench_work" / f"run-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, work_dir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            try:
                pkg = fresh_import()
            except ImportError as exc:
                print(f"error: cannot import polytoric: {exc}", file=sys.stderr)
                return 2
            workload.setup(pkg)
            setup_times.append(clock() - t0)
        workload.prepare(random.Random(args.seed))

        if args.trace:
            phases, metrics, problems = traced_run(workload, pkg, args.seconds)
            wanted = spec["per_layer"]
        else:
            phases = (measure(workload, args.seconds),)
            metrics = end_to_end(phases[0], setup_times)
            problems = []
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = failed == 0 and not problems

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"passes {' + '.join(str(len(p.passes)) for p in phases)}, ops {attempted}, "
          f"failed {failed}, failed_frac {failed / attempted:.6f}, "
          f"correctness gate {'passed' if correct else 'FAILED'}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name in sorted(metrics):
        print(f"  {name:45s} {metrics[name]:14.6f} {units.get(name, '?')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
