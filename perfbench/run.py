#!/usr/bin/env python3
"""Benchmark of the onenorm package: three workloads, end to end and per layer.

Run from the repository root:

  python3 perfbench/run.py --workload h2_optimize --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --smoke        # all workloads, tiny inputs, seconds

Each sample is a fresh single-process child (``child.py``) whose
environment pins OpenBLAS/OpenMP/MKL to one thread before numpy loads.
Children run back to back until ``--seconds`` have passed; every metric
is the median over them.  With ``--trace 0`` the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced children alternate: the
traced ones give the per-layer metrics, and the difference of the two
wall-time medians is the tracing overhead.

The last stdout line is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it holds the details: median, quartiles and sample count
of every metric, the failed checks, and the versions, thread counts and
git revision of the run.  ``attempted`` counts each sample's run and each
of its output checks; ``failed`` counts those that failed, and a child
that crashes counts as one failed attempt.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import UNITS as LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("h2_optimize", "chain_scaling", "dense_n50")
BLAS_THREADS = "1"
BUDGET_S = 170.0  # every child is stopped by then, so a run ends within 3 minutes

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "lambda_final": "Ha"}
UNITS = {**END_TO_END, **LAYER_UNITS}


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(workload, seed, traced, smoke, env, timeout):
    """One sample; returns its record, or None if the child failed."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if traced else "0", "1" if smoke else "0", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: sample stopped after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: sample exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"{workload}: sample printed no result\n{proc.stdout[-2000:]}", file=sys.stderr)
        return None


def summary(values):
    """Median, quartiles and count; quartiles as statistics.quantiles(n=4)."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, seed, seconds, trace, smoke, budget):
    """Sample for ``seconds`` (one sample, or pair, when smoke).

    Returns (attempted, failed, stats, detail); ``stats`` maps each metric
    to its median, quartiles, sample count and unit.
    """
    env = child_env()
    start = time.monotonic()
    untraced, traced, failed_checks = [], [], []
    attempted = failed = 0
    while True:
        # Untraced first; when tracing, traced and untraced samples alternate.
        is_traced = trace and len(untraced) > len(traced)
        record = run_child(workload, seed, is_traced, smoke, env,
                           budget - (time.monotonic() - start))
        attempted += 1
        if record is None:
            failed += 1
        else:
            attempted += record["checks"]
            failed += len(record["failed_checks"])
            failed_checks += record["failed_checks"]
            (traced if is_traced else untraced).append(record)
        elapsed = time.monotonic() - start
        pair_done = not trace or len(traced) == len(untraced)
        if (pair_done and (smoke or elapsed >= seconds)) or elapsed >= budget:
            break

    columns = {name: [r[name] for r in untraced] for name in END_TO_END}
    if trace:
        columns["import.onenorm_s"] = [r["import_s"] for r in untraced + traced]
        for name in traced[0]["layers"] if traced else ():
            columns[name] = [r["layers"][name] for r in traced]
        if traced and untraced:
            columns["trace.overhead_s"] = [
                statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in untraced)
            ]
    stats = {name: dict(summary(v), unit=UNITS[name]) for name, v in columns.items() if v}
    first = (untraced + traced)[:1]
    detail = {
        "workload": workload,
        "seed": seed,
        "seed_used": workload == "dense_n50",
        "smoke": smoke,
        "trace": trace,
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "stats": stats,
        "failed_checks": sorted(set(failed_checks)),
        "env": dict(first[0]["env"] if first else {},
                    blas_threads_pinned=int(BLAS_THREADS), nproc=os.cpu_count(),
                    git_sha=git_sha()),
    }
    return attempted, failed, stats, detail


def reported(stats, names, prefix=""):
    return {prefix + name: {"value": stats[name]["median"], "unit": stats[name]["unit"]}
            for name in names if name in stats}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on tiny inputs, traced and "
                             "untraced; reference bands are skipped")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "onenorm" / "__init__.py", ROOT / "fixtures")
               if not p.exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(map(str, missing))} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    # Children then import from bytecode, as from an installed package,
    # whether or not the environment lets Python write bytecode itself.
    for directory in (ROOT / "src", HERE):
        compileall.compile_dir(directory, quiet=1)
    start = time.monotonic()
    if args.smoke:
        attempted = failed = 0
        metrics = {}
        for workload in WORKLOADS:
            a, f, stats, detail = measure(workload, args.seed, 0.0, True, True,
                                          BUDGET_S - (time.monotonic() - start))
            attempted, failed = attempted + a, failed + f
            metrics.update(reported(stats, UNITS, prefix=f"{workload}/"))
            print(json.dumps({"detail": detail}))
    else:
        attempted, failed, stats, detail = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), False, BUDGET_S)
        metrics = reported(stats, LAYER_UNITS if args.trace else END_TO_END)
        print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
