"""Spans and counters for the traced benchmark run.

The library is not edited: ``Tracer.installed()`` rebinds every public
function of each titskit module, in every module that imported it by name,
to a wrapper that records a span (name, start, end, parent, job) and calls
the original.  ``FlatLattice.leq`` runs up to ~200k times per pass and
gets a counter only; a few tiny helpers called per coordinate or per sign
vector are left alone.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

from titskit import cli, elements, geometry, intrinsic, lattice, linalg, lp, tits

LAYERS = (cli, geometry, lp, linalg, lattice, tits, elements, intrinsic)
UNWRAPPED = {
    "dot",
    "matvec",
    "lcm",
    "common_denominator",
    "compose_signs",
    "signs_to_str",
    "str_to_signs",
    "canonicalize",
}
MC_KERNEL = "_mc_profile"

# functions whose spans are reported, and which statistics of them
SPAN_METRICS = {
    "lp.lp_feasible": ("calls", "s"),
    "geometry.enumerate_faces": ("calls", "s", "self_s"),
    "geometry.recession_cone": ("calls",),
    "intrinsic.cone_faces": ("calls", "s"),
    "intrinsic.try_exact_profile": ("calls", "s"),
    "tits.multiply": ("calls", "s"),
    "tits.is_characteristic": ("s",),
    "tits.flat_multiply": ("calls", "s"),
    "lattice.build_lattice": ("calls", "s"),
    "lattice.deletion_lattice": ("s",),
    "elements.verify_kung": ("s",),
    "elements.verify_deletion_restriction": ("s",),
    "elements.zaslavsky_counts": ("s",),
    "linalg.nullspace": ("calls", "s"),
    "linalg.matrix_rank": ("calls", "s"),
    "linalg.projection_matrix": ("calls", "s"),
    "cli.main": ("calls", "s"),
}

# counters reported as they are
COUNTED = (
    "lp.lp_feasible.calls.geometry",
    "lp.lp_feasible.calls.intrinsic",
    "geometry.faces",
    "intrinsic.mc.samples",
    "tits.multiply.pairs",
    "lattice.flats",
    "lattice.leq.calls",
)


def _layer(module):
    return module.__name__.rsplit(".", 1)[-1]


def _ratio(num, den):
    return num / den if den else 0.0


def congruence_key(cone):
    """Lineality dimension and the sorted sign-preserving squared cosines
    between inequality normals; congruent cones share it."""
    rows = list(cone.equalities) + list(cone.inequalities)
    lineality = cone.dim - linalg.matrix_rank(rows) if rows else cone.dim
    ineqs = cone.inequalities
    norms = [sum(c * c for c in a) for a in ineqs]
    cosines = []
    for i in range(len(ineqs)):
        for j in range(i + 1, len(ineqs)):
            d = sum(x * y for x, y in zip(ineqs[i], ineqs[j]))
            cosines.append(Fraction(d * abs(d), norms[i] * norms[j]))
    return lineality, tuple(sorted(cosines))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job, nested]
        self.job = None
        self.counters = Counter()
        self.mc_cones = []
        self.passes = []  # (first span, end span, counters, mc cones)
        self._stack = []
        self._open = Counter()
        self._pass_start = 0

    # -- wrappers ------------------------------------------------------------

    def _after(self, name, site, args, result):
        c = self.counters
        if name == "lp.lp_feasible":
            c[f"lp.lp_feasible.calls.{site}"] += 1
            c["lp.feasible"] += result is not None
        elif name == "geometry.enumerate_faces":
            c["geometry.faces"] += len(result)
        elif name == "lattice.build_lattice":
            c["lattice.flats"] += len(result)
        elif name == "intrinsic.cone_faces":
            c["intrinsic.cone_faces.faces"] += len(result)
            c["intrinsic.cone_faces.subsets"] += 2 ** len(args[0].inequalities)
        elif name == "intrinsic.try_exact_profile":
            c["intrinsic.try_exact_profile.hits"] += result is not None
        elif name == "tits.multiply":
            c["tits.multiply.pairs"] += len(args[1].coeffs) * len(args[2].coeffs)
        elif name == f"intrinsic.{MC_KERNEL}":
            c["intrinsic.mc.samples"] += args[1]
            self.mc_cones.append(args[0])

    def _span(self, name, site, fn):
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, open_[name] > 0]
            stack.append(len(spans))
            spans.append(rec)
            open_[name] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                open_[name] -= 1
                stack.pop()
            self._after(name, site, args, result)
            return result

        return wrapper

    def _count(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind the layers' functions for the duration of the block."""
        targets = {}
        for module in LAYERS:
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and attr not in UNWRAPPED
                    and (not attr.startswith("_") or attr == MC_KERNEL)
                ):
                    targets[obj] = f"{_layer(module)}.{attr}"
        sites = [m for n, m in sys.modules.items() if n.split(".")[0] == "titskit"]
        restore = []
        try:
            for site in sites:
                for attr, obj in list(vars(site).items()):
                    if inspect.isfunction(obj) and obj in targets:
                        restore.append((site, attr, obj))
                        setattr(site, attr, self._span(targets[obj], _layer(site), obj))
            leq = lattice.FlatLattice.leq
            restore.append((lattice.FlatLattice, "leq", leq))
            lattice.FlatLattice.leq = self._count("lattice.leq.calls", leq)
            yield self
        finally:
            for owner, attr, obj in reversed(restore):
                setattr(owner, attr, obj)

    # -- passes and metrics ----------------------------------------------------

    def begin_pass(self):
        self._pass_start = len(self.spans)
        self.counters.clear()
        self.mc_cones = []

    def end_pass(self):
        self.passes.append(
            (self._pass_start, len(self.spans), Counter(self.counters), self.mc_cones)
        )

    def pass_metrics(self, index):
        """Per-layer metrics of one traced pass.  Call with the tracer
        uninstalled: the congruence keys use the library's own rank."""
        lo, hi, counters, mc_cones = self.passes[index]
        spans = self.spans[lo:hi]
        children = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= lo:
                children[parent - lo] += end - start
        calls, incl, self_s, layer_self = Counter(), Counter(), Counter(), Counter()
        for (name, start, end, _, _, nested), child in zip(spans, children):
            calls[name] += 1
            if not nested:
                incl[name] += end - start
            self_s[name] += end - start - child
            layer_self[name.split(".")[0]] += end - start - child

        m = {}
        for name, stats in SPAN_METRICS.items():
            values = {"calls": calls[name], "s": incl[name], "self_s": self_s[name]}
            for stat in stats:
                m[f"{name}.{stat}"] = values[stat]
        for key in COUNTED:
            m[key] = counters[key]
        m["lp.feasible_ratio"] = _ratio(counters["lp.feasible"], calls["lp.lp_feasible"])
        m["intrinsic.cone_faces.yield"] = _ratio(
            counters["intrinsic.cone_faces.faces"], counters["intrinsic.cone_faces.subsets"]
        )
        m["intrinsic.try_exact_profile.hit_ratio"] = _ratio(
            counters["intrinsic.try_exact_profile.hits"], calls["intrinsic.try_exact_profile"]
        )
        mc = f"intrinsic.{MC_KERNEL}"
        m["intrinsic.mc.cones"] = calls[mc]
        m["intrinsic.mc.self_s"] = self_s[mc]
        m["intrinsic.mc.samples_per_s"] = _ratio(counters["intrinsic.mc.samples"], self_s[mc])
        # over distinct cones, so re-profiling the very same cone is no repeat
        distinct = set(mc_cones)
        keys = {congruence_key(c) for c in distinct}
        m["intrinsic.mc.repeat_share"] = _ratio(len(distinct) - len(keys), len(distinct))
        m["tits.multiply.pairs_per_s"] = _ratio(
            counters["tits.multiply.pairs"], incl["tits.multiply"]
        )
        for module in LAYERS:
            m[f"{_layer(module)}.self_s"] = layer_self[_layer(module)]
        return m

    def metrics(self):
        """Median over traced passes of each per-layer metric."""
        per_pass = [self.pass_metrics(i) for i in range(len(self.passes))]
        return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, start - t0, end - t0, parent, job]
            for name, start, end, parent, job, _ in self.spans
        ]
        path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "job"], "spans": rows})
        )
