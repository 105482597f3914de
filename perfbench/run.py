"""titskit benchmark: time to a checked answer, end to end and per layer.

    python3 perfbench/run.py --workload verify-braid4 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One process, one thread, a closed loop: one client submits the workload's
jobs back to back, each in-process against ``src/`` with assertions on.  A
pass runs every job once; passes repeat while the next one is expected to
finish within ``--seconds`` (at least one always runs).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` one untraced pass followed by
traced passes and the per-layer metrics.  The last line of stdout is a JSON
object; the exit status is 1 when an output check failed, 2 on bad usage.
``--workload all`` runs each workload in its own process and prints one row
per workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("combinatorics", "algebra", "verify-braid4", "verify-generic")
SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare():
    """Pin native thread pools to one thread and put ``src/`` on the path.
    Must run before numpy is imported."""
    if not (ROOT / "src" / "titskit" / "__init__.py").is_file():
        sys.exit(f"error: no titskit sources under {ROOT / 'src'}")
    if not __debug__:
        sys.exit("error: run without -O; the library's checks are assertions")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def timed_setup(workload, seed):
    """Import numpy and titskit and build the inputs; (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    wl = workloads.setup(workload, seed, OUT / "inputs")
    return wl, time.perf_counter() - start


def setup_in_fresh_process(workload, seed):
    cmd = [sys.executable, str(SCRIPT), "--workload", workload]
    cmd += ["--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class PassResult(NamedTuple):
    seconds: float
    outputs: dict
    checks: list  # (job, check, ok)


def run_pass(jobs, tracer=None):
    """Submit every job once, back to back, and check each answer."""
    outputs, checks = {}, []
    if tracer is not None:
        tracer.begin_pass()
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        try:
            out, job_checks = job.run()
        except Exception:
            traceback.print_exc()
            out, job_checks = None, [("completed", False)]
        outputs[job.name] = out
        checks += [(job.name, name, ok) for name, ok in job_checks]
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_pass()
    return PassResult(seconds, outputs, checks)


def measure(step, seconds):
    """Call step() back to back while the next call is expected to end
    within `seconds`; at least once."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def end_to_end(workload, seed, seconds):
    wl, first = timed_setup(workload, seed)
    setups = [first] + [
        setup_in_fresh_process(workload, seed) for _ in range(SETUP_REPEATS - 1)
    ]
    passes = measure(lambda: run_pass(wl.jobs), seconds)
    metrics = {
        "solve_s": (statistics.median(p.seconds for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return passes, metrics


def traced(workload, seed, seconds):
    wl, _ = timed_setup(workload, seed)
    import tracing
    import workloads

    tracer = tracing.Tracer()

    def pair():
        plain = run_pass(wl.jobs)
        with tracer.installed():
            return plain, run_pass(wl.jobs, tracer)

    # untraced and traced passes alternate, so drift hits both alike
    pairs = measure(pair, seconds)
    layer = tracer.metrics()
    layer["trace.overhead_s"] = statistics.median(
        t.seconds for _, t in pairs
    ) - statistics.median(p.seconds for p, _ in pairs)
    matched = 0
    if wl.reference_ks is not None:
        stored = workloads.REFERENCE[workload]["ks_estimate_hex"]
        got = [float.hex(v) for v in wl.reference_ks()]
        matched = sum(a == b for a, b in zip(got, stored))
    layer["intrinsic.mc.reference_match"] = matched
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    units = per_layer_units()
    passes = [p for pair in pairs for p in pair]
    return passes, {k: (v, units[k]) for k, v in layer.items()}


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_one(args):
    if args.trace:
        passes, metrics = traced(args.workload, args.seed, args.seconds)
    else:
        passes, metrics = end_to_end(args.workload, args.seed, args.seconds)
    checks = [c for p in passes for c in p.checks]
    failed = [c for c in checks if not c[2]]
    for job, name, _ in failed:
        print(f"FAIL {args.workload} {job} {name}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<16} {name:<44} {value:>14.6g} {unit}")
    print(f"{args.workload:<16} {'fail_ratio':<44} {len(failed) / len(checks):>14.6g} ratio")
    print(f"{args.workload:<16} {'passes':<44} {len(passes):>14d} count")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


def run_all(args):
    """Every workload in its own process; one table row per metric."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(SCRIPT), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        status = status or done.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        _, seconds = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
