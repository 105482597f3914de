"""Acceptance gate: eleven end-to-end criteria, one test (and one
pass/fail line) each.  Tolerances are stated inline; everything without an
explicit tolerance is exact rational arithmetic.
"""

import math
import random
import time
from fractions import Fraction

from titskit.elements import (
    adams_a,
    adams_a_normalized,
    adams_b,
    coordinate_element,
    verify_deletion_restriction,
    verify_kung,
    zaslavsky_counts,
)
from titskit.geometry import recession_cone
from titskit.intrinsic import (
    conic_intrinsic_volumes,
    face_intrinsic_volumes,
    intrinsic_element,
    klivans_swartz_charpoly,
)
from titskit.scalars import Poly, T
from titskit.tits import (
    TitsElement,
    character,
    flat_multiply,
    is_characteristic,
    multiply,
    q_basis,
    takeuchi_element,
    unit_element,
)

from conftest import get_trio

BRAID = ["braid2", "braid3", "braid4", "braid5"]
SIGNED = ["signed1", "signed2", "signed3"]
COORD = ["coord1", "coord2", "coord3", "coord4", "coord5"]
# the full regression set: the three families plus two affine configurations
ALL = BRAID + SIGNED + COORD + ["generic23", "parallel+"]


def _line(n, text):
    print(f"criterion-{n:02d} PASS: {text}")


def test_criterion_01_closed_form_charpolys():
    for n in range(2, 6):
        _, _, lat = get_trio(f"braid{n}")
        want = Poly((1,))
        for k in range(1, n):
            want = want * (T - k)
        assert lat.charpoly() == want, f"braid{n}"
    for n in range(1, 4):
        _, _, lat = get_trio(f"signed{n}")
        want = Poly((1,))
        for k in range(1, n + 1):
            want = want * (T - (2 * k - 1))
        assert lat.charpoly() == want, f"signed{n}"
    for n in range(1, 6):
        _, _, lat = get_trio(f"coord{n}")
        assert lat.charpoly() == (T - 1) ** n, f"coord{n}"
    _line(1, "closed-form charpolys for braid 2..5, signed 1..3, "
             "coordinate 1..5 (exact)")


def test_criterion_02_zaslavsky():
    for name in ALL:
        _, faces, lat = get_trio(name)
        rep = zaslavsky_counts(faces, lat)
        assert rep.chambers_census == rep.chambers_from_chi, name
        assert rep.bounded_census == rep.bounded_from_chi, name
    _line(2, f"Zaslavsky chamber and bounded-chamber counts on "
             f"{len(ALL)} arrangements (exact)")


def test_criterion_03_unit_identity():
    checked = 0
    for name in ALL:
        arr, faces, _ = get_trio(name)
        u = unit_element(faces)
        for f in faces:
            h = TitsElement(arr, {f.signs: Fraction(1)})
            assert multiply(faces, u, h).coeffs == h.coeffs, (name, f.signs)
            assert multiply(faces, h, u).coeffs == h.coeffs, (name, f.signs)
            checked += 1
    _line(3, f"unit element is a two-sided identity on all {checked} faces "
             f"of {len(ALL)} arrangements (exact)")


def test_criterion_04_characteristic_predicates():
    for name in ALL:
        _, faces, lat = get_trio(name)
        assert is_characteristic(lat, unit_element(faces), Fraction(1)).ok
        assert is_characteristic(lat, takeuchi_element(faces), Fraction(-1)).ok
    for name in BRAID:
        _, faces, lat = get_trio(name)
        assert is_characteristic(lat, adams_a_normalized(faces), T).ok, name
    for name in SIGNED:
        _, faces, lat = get_trio(name)
        assert is_characteristic(lat, adams_b(faces), Poly((1, 2))).ok, name
    for name in COORD:
        _, faces, lat = get_trio(name)
        assert is_characteristic(lat, coordinate_element(faces), T).ok, name
    _line(4, "characteristic predicates: unit at 1 and Takeuchi at -1 "
             "everywhere; normalized Adams at t (braid 2..5); signed Adams "
             "at 2t+1 (signed 1..3); coordinate at t (coordinate 1..5), "
             "all as exact polynomial identities")


def test_criterion_05_adams_multiplicativity():
    pairs = 0
    for n in range(2, 5):
        arr, faces, _ = get_trio(f"braid{n}")
        alpha = adams_a(faces)
        # degree in each variable is at most the ambient dimension, so an
        # (n+1) x (n+1) rational grid certifies the two-variable identity
        ss = [Fraction(2 * i - n, 3) for i in range(n + 1)]
        ts = [Fraction(3 * j - n, 4) for j in range(n + 1)]
        for s in ss:
            for t in ts:
                left = multiply(
                    faces, alpha.evaluate(s), alpha.evaluate(t)
                ).coeffs
                right = alpha.evaluate(s * t).coeffs
                keys = set(left) | set(right)
                assert all(
                    left.get(k, 0) == right.get(k, 0) for k in keys
                ), (n, s, t)
                pairs += 1
    _line(5, f"Adams multiplicativity certified at {pairs} rational "
             f"(s, t) grid pairs on braid 2..4 (exact)")


def test_criterion_06_deletion_restriction():
    ran = 0
    skipped = 0
    for name in ALL:
        arr, faces, lat = get_trio(name)
        for h in range(arr.m):
            rep = verify_deletion_restriction(arr, faces, lat, h)
            if rep.rank_ok:
                assert rep.ok, (name, h)
                ran += 1
            else:
                skipped += 1
    assert ran >= 30
    _line(6, f"deletion-restriction recursion at {ran} hyperplanes "
             f"({skipped} skipped for rank drop) (exact)")


def test_criterion_07_kung_identity():
    rng = random.Random(20260814)
    for name in ALL:
        _, _, lat = get_trio(name)
        for _ in range(5):
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            rep = verify_kung(lat, s, t)
            assert rep.ok, (name, s, t)
            assert rep.lhs == lat.charpoly()(s * t)
    _line(7, f"Kung convolution identity at 5 random rational pairs on "
             f"each of {len(ALL)} arrangements (exact)")


def test_criterion_08_intrinsic_volume_table():
    start = time.perf_counter()
    arr, faces, _ = get_trio("braid4")
    x = math.acos(math.sqrt(3) / 3) / (2 * math.pi)
    y = math.acos(1 / 3) / (2 * math.pi)
    short = faces.face(arr.sign_vector((0, 0, 1, 2)))
    long_ = faces.face(arr.sign_vector((0, 1, 1, 2)))
    chamber = faces.face(arr.sign_vector((0, 1, 2, 3)))

    exact_x = face_intrinsic_volumes(arr, short).values[3]
    exact_y = face_intrinsic_volumes(arr, long_).values[3]
    assert abs(exact_x - x) < 1e-12 and abs(exact_y - y) < 1e-12

    mc = {
        "x": face_intrinsic_volumes(
            arr, short, samples=10**6, seed=0, force_mc=True
        ),
        "y": face_intrinsic_volumes(
            arr, long_, samples=10**6, seed=0, force_mc=True
        ),
        "chamber": face_intrinsic_volumes(
            arr, chamber, samples=10**6, seed=0, force_mc=True
        ),
    }
    mx, my = mc["x"].values[3], mc["y"].values[3]
    assert abs(mx - x) <= 0.005
    assert abs(my - y) <= 0.005
    assert abs(4 * mx + 2 * my - 1.0) <= 0.005
    target = (0.0, 0.25, 11 / 24, 0.25, 1 / 24)
    for got, want in zip(mc["chamber"].values, target):
        assert abs(got - want) <= 0.005
    elapsed = time.perf_counter() - start
    assert elapsed <= 300
    _line(8, f"rank-3 braid edge angles x={mx:.6f}, y={my:.6f} and chamber "
             f"profile at 10^6 samples, all within 0.005 "
             f"({elapsed:.1f}s of 300s budget)")


def test_criterion_09_klivans_swartz():
    for name in ["braid3", "coord1", "coord2", "coord3"]:
        _, faces, lat = get_trio(name)
        rep = klivans_swartz_charpoly(faces, lat)
        assert rep.ok(tol=0.05), name
    _, faces, lat = get_trio("braid4")
    rep = klivans_swartz_charpoly(faces, lat, samples=10**6, seed=0)
    assert rep.exact == (-6.0, 11.0, -6.0, 1.0)
    assert rep.ok(tol=0.05)
    assert rep.ok()  # also inside the summed MC half-widths
    _line(9, "Klivans-Swartz charpoly reconstruction within 0.05 per "
             "coefficient on braid 3, 4 and coordinate 1..3")


def test_criterion_10_intrinsic_element_limits():
    def check(name, force_mc, samples):
        arr, faces, _ = get_trio(name)
        nu = intrinsic_element(
            arr, faces, samples=samples, seed=0, force_mc=force_mc
        )
        for value, target in (
            (1.0, unit_element(faces)),
            (-1.0, takeuchi_element(faces)),
        ):
            ev = nu.evaluate(value)
            keys = set(ev.coeffs) | set(target.coeffs)
            for k in keys:
                slack = 1e-9 + sum(nu.profiles[k].half_width)
                dev = abs(ev.coeffs.get(k, 0.0) - float(target.coeffs.get(k, 0)))
                assert dev <= slack, (name, force_mc, k)

    check("braid3", False, 10**5)
    check("generic23", False, 10**5)
    check("braid3", True, 2 * 10**5)
    _line(10, "nu at 1 matches the unit element and nu at -1 the Takeuchi "
              "element, per-face within MC half-widths (1e-9 floor on the "
              "exact path), on braid 3 and three generic lines")


def test_criterion_11_property_suites():
    # character multiplicativity on random elements
    rng = random.Random(11)
    for name in ["braid3", "generic23", "parallel+"]:
        arr, faces, lat = get_trio(name)
        signs = faces.sign_vectors()
        for _ in range(8):
            u = TitsElement(
                arr,
                {
                    s: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for s in rng.sample(signs, min(5, len(signs)))
                },
            )
            v = TitsElement(
                arr,
                {
                    s: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for s in rng.sample(signs, min(5, len(signs)))
                },
            )
            uv = multiply(faces, u, v)
            for x in range(len(lat)):
                assert character(lat, uv, x) == character(
                    lat, u, x
                ) * character(lat, v, x)

    # Q-basis: orthogonal idempotents that sum to the unit of the flat algebra
    for name in ["braid3", "coord2", "triangle", "parallel"]:
        _, _, lat = get_trio(name)
        qs = q_basis(lat)
        total = {}
        for x in range(len(lat)):
            for y in range(len(lat)):
                prod = flat_multiply(lat, qs[x], qs[y])
                assert prod == (qs[x] if x == y else {}), (name, x, y)
            for k, c in qs[x].items():
                total[k] = total.get(k, 0) + c
        total = {k: c for k, c in total.items() if c != 0}
        for y in range(len(lat)):
            assert flat_multiply(lat, total, {y: 1}) == {y: 1}, (name, y)

    # total Gaussian measure 1 and the Gauss-Bonnet alternation
    for name in ["braid3", "coord2", "generic23"]:
        arr, faces, _ = get_trio(name)
        for f in faces:
            prof = face_intrinsic_volumes(arr, f)
            assert abs(prof.total() - 1.0) < 1e-12
            alt = prof.euler_alternation()
            if f.essentially_bounded:
                assert abs(abs(alt) - 1.0) < 1e-12
            else:
                assert abs(alt) < 1e-12

    # Monte Carlo determinism and agreement with the exact path
    arr, faces, _ = get_trio("braid3")
    for f in [faces.face((-1, -1, -1)), faces.face((0, -1, -1))]:
        cone = recession_cone(arr, f)
        a = conic_intrinsic_volumes(cone, samples=10**5, seed=5, force_mc=True)
        b = conic_intrinsic_volumes(cone, samples=10**5, seed=5, force_mc=True)
        assert a.values == b.values  # bit identical
        c = conic_intrinsic_volumes(cone, samples=10**5, seed=6, force_mc=True)
        assert a.values != c.values
        exact = conic_intrinsic_volumes(cone)
        mc = conic_intrinsic_volumes(
            cone, samples=2 * 10**5, seed=0, force_mc=True
        )
        for got, want, hw in zip(mc.values, exact.values, mc.half_width):
            assert abs(got - want) <= hw
        total = sum(mc.values)
        assert abs(total - 1.0) < 1e-12

    _line(11, "property suites: character multiplicativity, Q-basis "
              "idempotents, profile normalization and alternation, MC "
              "determinism, exact-vs-MC agreement")
