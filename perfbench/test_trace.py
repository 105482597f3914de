"""The traced run must change no output, and its counts must repeat.

    python3 -m pytest perfbench/test_trace.py -q -s

For each workload: one untraced pass, then two traced passes.  Exact
results and Monte Carlo estimates must be identical across all three, every
per-layer count identical between the two traced passes, and every
per-layer metric in BENCHMARK.json reported, tracing overhead included.
"""

import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.prepare()
import tracing  # noqa: E402

SEED = 3


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracing_is_transparent_and_repeatable(workload):
    wl, _ = run.timed_setup(workload, SEED)
    plain = run.run_pass(wl.jobs)
    assert plain.checks and all(ok for _, _, ok in plain.checks)

    tracer = tracing.Tracer()
    traced = []
    for _ in range(2):
        with tracer.installed():
            traced.append(run.run_pass(wl.jobs, tracer))
    for t in traced:
        assert t.outputs == plain.outputs
        assert t.checks == plain.checks

    units = run.per_layer_units()
    first, second = tracer.pass_metrics(0), tracer.pass_metrics(1)
    counts = [k for k in first if units[k] not in ("s", "1/s")]
    assert [first[k] for k in counts] == [second[k] for k in counts]
    # reported by run.traced itself, outside the per-pass metrics
    extra = {"trace.overhead_s", "intrinsic.mc.reference_match"}
    assert set(first) | extra == set(units)

    overhead = statistics.median(t.seconds for t in traced) - plain.seconds
    assert math.isfinite(overhead)
    print(f"\n{workload}: untraced {plain.seconds:.3f} s, traced "
          f"{traced[0].seconds:.3f} s and {traced[1].seconds:.3f} s, "
          f"overhead {overhead:+.3f} s, {len(tracer.spans)} spans")
