"""Inputs, jobs and output checks of the four benchmark workloads.

A workload is built from its seed during set-up (importing this module
imports titskit and with it numpy) and is a list of jobs.  A
job is one request against titskit, run in-process; it returns its output
(compared between traced and untraced passes) and a list of named checks.
Exact checks compare against closed forms or against ``reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import titskit
from titskit import cli, elements, geometry, intrinsic

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())
SAMPLES = 20000


@dataclass
class Job:
    name: str
    run: Callable[[], tuple]


@dataclass
class Workload:
    jobs: list
    # verify-* only: KS estimates at the reference seed, for the traced run
    reference_ks: Callable[[], list] | None = None


# -- closed-form characteristic polynomials (coefficients low to high) --------


def _times_linear(p, root):
    """Multiply p(t) by (t - root)."""
    out = [0] * (len(p) + 1)
    for j, c in enumerate(p):
        out[j + 1] += c
        out[j] -= root * c
    return out


def _from_roots(roots):
    p = [1]
    for r in roots:
        p = _times_linear(p, r)
    return p


def chi_braid(n):
    return _from_roots(range(1, n))


def chi_signed(n):
    return _from_roots(range(1, 2 * n, 2))


def chi_coordinate(n):
    return _from_roots([1] * n)


def chi_general_position(dim, m):
    """m affine hyperplanes in general position in R^dim (m >= dim)."""
    return [(-1) ** (dim - j) * comb(m, dim - j) for j in range(dim + 1)]


def _evaluate(p, t):
    return sum(c * t**j for j, c in enumerate(p))


def _triangle():
    # x = 0, y = 0, x + y = 1, as in the test fixtures: chi = t^2 - 3t + 3
    return geometry.make_arrangement(
        2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)], kind="triangle"
    )


def _permuted(arr, rng):
    """The same hyperplanes in a seeded order; kind and params are kept."""
    order = list(range(arr.m))
    rng.shuffle(order)
    rows = [
        (arr.hyperplanes[i].normal, arr.hyperplanes[i].offset) for i in order
    ]
    return geometry.make_arrangement(
        arr.dim, rows, kind=arr.kind, params=arr.params
    )


def _write(arr, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(geometry.arrangement_to_json(arr)))
    return str(path)


def _run_cli(argv):
    """Exit status and parsed JSON report of one titskit command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report = json.loads(buf.getvalue()) if code in (0, 1) else None
    if report is not None:
        report.pop("timings")
    return code, report


def _cli_checks(code, report):
    checks = [("exit-0", code == 0)]
    if report is not None:
        checks += [(c["name"], c["ok"] is True) for c in report["checks"]]
    return checks


# -- combinatorics -------------------------------------------------------------

COMBINATORICS = (
    ("braid4", lambda: elements.braid_arrangement(4), chi_braid(4)),
    ("signed3", lambda: elements.signed_braid_arrangement(3), chi_signed(3)),
    ("coord5", lambda: elements.coordinate_arrangement(5), chi_coordinate(5)),
    (
        "generic-3-6-1",
        lambda: elements.generic_arrangement(3, 6, seed=1),
        chi_general_position(3, 6),
    ),
    ("triangle", _triangle, chi_general_position(2, 3)),
)


def _zaslavsky_job(name, path, chi):
    rank = len(chi) - 1
    sign = (-1) ** rank

    def run():
        code, report = _run_cli(["zaslavsky", "--json", "--file", path])
        checks = _cli_checks(code, report)
        res = report["results"] if report else {}
        checks += [
            ("rank", res.get("rank") == rank),
            ("chambers-closed-form", res.get("chambers") == sign * _evaluate(chi, -1)),
            (
                "bounded-closed-form",
                res.get("essentially_bounded") == sign * _evaluate(chi, 1),
            ),
        ]
        return report, checks

    return Job(name, run)


# Enumeration time depends on the hyperplane order (up to ~25% on signed3);
# two orders per arrangement halve that seed-to-seed variance of a pass.
ORDERS_PER_ARRANGEMENT = 2


def setup_combinatorics(seed, outdir):
    rng = random.Random(seed)
    jobs = []
    for k in range(ORDERS_PER_ARRANGEMENT):
        for name, build, chi in COMBINATORICS:
            path = _write(_permuted(build(), rng), outdir / f"{name}-{k}.json")
            jobs.append(_zaslavsky_job(f"{name}-{k}", path, chi))
    return Workload(jobs)


# -- algebra -------------------------------------------------------------------

ALGEBRA = (
    ("coord6", lambda: elements.coordinate_arrangement(6), chi_coordinate(6)),
    ("signed3", lambda: elements.signed_braid_arrangement(3), chi_signed(3)),
    ("braid4", lambda: elements.braid_arrangement(4), chi_braid(4)),
)
KUNG_PAIRS = (
    (Fraction(2), Fraction(3)),
    (Fraction(-1), Fraction(3)),
    (Fraction(1, 2), Fraction(-2)),
)


def _algebra_jobs(name, arr, faces, lat, chi):
    tk = titskit
    ref = REFERENCE["algebra"][name]

    def census():
        coeffs = list(lat.charpoly().coeffs)
        out = (len(faces), len(lat), coeffs)
        return out, [
            ("faces-reference", len(faces) == ref["faces"]),
            ("flats-reference", len(lat) == ref["flats"]),
            ("chi-closed-form", coeffs == chi),
        ]

    def tau_squared():
        tau = tk.takeuchi_element(faces)
        prod = tk.multiply(faces, tau, tau)
        return prod.coeffs, [("tau-tau-unit", prod == tk.unit_element(faces))]

    def unit_identity():
        u = tk.unit_element(faces)
        ok = True
        for f in faces:
            h = tk.basis_element(arr, f.signs)
            ok = ok and tk.multiply(faces, u, h) == h == tk.multiply(faces, h, u)
        return ok, [("unit-identity", ok)]

    def characteristic():
        cases = [
            ("unit", tk.unit_element(faces), Fraction(1)),
            ("takeuchi", tk.takeuchi_element(faces), Fraction(-1)),
        ]
        if arr.kind == "braid":
            cases.append(("adams-a", tk.adams_a_normalized(faces), tk.T))
        if arr.kind == "signed-braid":
            cases.append(("adams-b", tk.adams_b(faces), tk.Poly((1, 2))))
        if arr.kind == "coordinate":
            cases.append(("coordinate", tk.coordinate_element(faces), tk.T))
        reports = [(n, tk.is_characteristic(lat, w, t)) for n, w, t in cases]
        return (
            [(n, r.entries) for n, r in reports],
            [(f"characteristic-{n}", r.ok) for n, r in reports],
        )

    def kung():
        reps = [tk.verify_kung(lat, s, t) for s, t in KUNG_PAIRS]
        return (
            [(r.lhs, r.flat_sum, r.pair_sum) for r in reps],
            [(f"kung-s{r.s}-t{r.t}", r.ok) for r in reps],
        )

    def q_basis():
        q = tk.q_basis(lat)
        ok = True
        for x, qx in q.items():
            for y, qy in q.items():
                expect = qx if x == y else {}
                ok = ok and tk.flat_multiply(lat, qx, qy) == expect
        return q, [("q-basis-idempotents", ok)]

    def deletion():
        reps = [
            tk.verify_deletion_restriction(arr, faces, lat, h)
            for h in range(arr.m)
        ]
        # a deletion that drops the rank makes no claim, as in `verify`
        return (
            [(r.chi_deleted, r.chi_restriction, r.rank_ok) for r in reps],
            [(f"deletion-h{r.hyperplane}", r.ok or not r.rank_ok) for r in reps],
        )

    def adams_multiplicative():
        a = tk.adams_a(faces)
        s, t = Fraction(2), Fraction(3)
        lhs = tk.multiply(faces, a.evaluate(s), a.evaluate(t))
        return lhs.coeffs, [("adams-multiplicativity", lhs == a.evaluate(s * t))]

    steps = [census, tau_squared, unit_identity, characteristic, kung, q_basis, deletion]
    if arr.kind == "braid":
        steps.append(adams_multiplicative)
    return [Job(f"{name}/{fn.__name__}", fn) for fn in steps]


def setup_algebra(seed, outdir):
    rng = random.Random(seed)
    jobs = []
    for name, build, chi in ALGEBRA:
        arr = _permuted(build(), rng)
        faces = titskit.enumerate_faces(arr)
        lat = titskit.build_lattice(arr, faces)
        jobs += _algebra_jobs(name, arr, faces, lat, chi)
    return Workload(jobs)


# -- verify-braid4, verify-generic ---------------------------------------------


def _verify_job(name, source, chi, seed):
    ref = REFERENCE[name]
    rank = len(chi) - 1
    sign = (-1) ** rank
    argv = ["verify", "all", *source, "--samples", str(SAMPLES), "--json"]
    argv += ["--seed", str(seed)]

    def run():
        code, report = _run_cli(argv)
        checks = _cli_checks(code, report)
        by_name = {c["name"]: c for c in report["checks"]} if report else {}
        zas = by_name.get("zaslavsky", {})
        ks = by_name.get("klivans-swartz", {})
        checks += [
            ("faces-reference", by_name.get("unit-identity", {}).get("faces") == ref["faces"]),
            ("flats-reference", by_name.get("q-basis", {}).get("flats") == ref["flats"]),
            ("chambers-closed-form", zas.get("chambers") == sign * _evaluate(chi, -1)),
            ("bounded-closed-form", zas.get("essentially_bounded") == sign * _evaluate(chi, 1)),
            ("chi-closed-form", ks.get("exact") == [float(c) for c in chi]),
        ]
        return report, checks

    return Job(name, run)


def _reference_ks(arr):
    def run():
        faces = titskit.enumerate_faces(arr)
        lat = titskit.build_lattice(arr, faces)
        rep = intrinsic.klivans_swartz_charpoly(
            faces, lat, samples=SAMPLES, seed=REFERENCE["seed"]
        )
        return list(rep.estimate)

    return run


def setup_verify_braid4(seed, outdir):
    job = _verify_job(
        "verify-braid4", ["--family", "braid", "--n", "4"], chi_braid(4), seed
    )
    return Workload([job], _reference_ks(elements.braid_arrangement(4)))


def setup_verify_generic(seed, outdir):
    # built once and passed as a file: the CLI's --seed would otherwise
    # redraw the arrangement along with the Monte Carlo stream
    arr = elements.generic_arrangement(3, 4, seed=11)
    path = _write(arr, outdir / "generic-3-4-11.json")
    job = _verify_job(
        "verify-generic", ["--file", path], chi_general_position(3, 4), seed
    )
    return Workload([job], _reference_ks(arr))


SETUP = {
    "combinatorics": setup_combinatorics,
    "algebra": setup_algebra,
    "verify-braid4": setup_verify_braid4,
    "verify-generic": setup_verify_generic,
}


def setup(name, seed, outdir):
    return SETUP[name](seed, Path(outdir) / f"{name}-seed{seed}")
