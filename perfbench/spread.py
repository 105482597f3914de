"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 --first-seed 1 [--workloads algebra ...]
                                [--out spread.json]

Runs the benchmark once per seed on each workload, one run at a time, and
prints each metric's median, quartiles (``statistics.quantiles(n=4)``) and
quartile distance as a share of the median, beside its bound from
BENCHMARK.json.  Exits 1 if any run failed or reported a failed check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    result = json.loads(done.stdout.splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items()}


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report, status = {"seeds": seeds, "run_seconds": SPEC["run_seconds"]}, 0
    for workload in args.workloads:
        runs = [one_run(workload, seed) for seed in seeds]
        if None in runs:
            status = 1
            runs = [r for r in runs if r is not None]
        if len(runs) < 2:
            continue
        report[workload] = {
            name: summarize([r[name] for r in runs], bound) for name, bound in bounds.items()
        }
        for name, s in report[workload].items():
            print(
                f"{workload:<16} {name:<12} median {s['median']:10.4f}  "
                f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  "
                f"spread {s['spread']:.3f}  bound {s['bound']}",
                flush=True,
            )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
