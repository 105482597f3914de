"""The benchmark tracer's targets exist in the library.

`perfbench/tracing.py` wraps titskit functions by name: every module in
its LAYERS, `FlatLattice.leq`, each function in SPAN_METRICS and the
Monte Carlo kernel.  A name the library drops would read 0 in a traced run
or break it, so the tracer's source is read here, without running it, and
each target is looked up.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer_names():
    """LAYERS (module names), SPAN_METRICS keys and MC_KERNEL, as written
    in the tracer's source."""
    tree = ast.parse(TRACING.read_text())
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            values[getattr(node.targets[0], "id", None)] = node.value
    layers = [elt.id for elt in values["LAYERS"].elts]
    spans = list(ast.literal_eval(values["SPAN_METRICS"]))
    return layers, spans, ast.literal_eval(values["MC_KERNEL"])


LAYERS, SPANS, MC_KERNEL = _tracer_names()


def test_every_layer_imports():
    assert {"lattice", "tits", "intrinsic"} <= set(LAYERS)
    for name in LAYERS:
        importlib.import_module(f"titskit.{name}")


def test_leq_is_there_to_count():
    lattice = importlib.import_module("titskit.lattice")
    assert callable(lattice.FlatLattice.leq)


@pytest.mark.parametrize("target", SPANS + [f"intrinsic.{MC_KERNEL}"])
def test_span_target_exists(target):
    layer, name = target.split(".")
    assert layer in LAYERS
    assert callable(getattr(importlib.import_module(f"titskit.{layer}"), name))
