import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit import intrinsic
from titskit.elements import coordinate_arrangement, generic_arrangement
from titskit.geometry import HomogeneousCone, _cone_rays, recession_cone
from titskit.intrinsic import (
    PolygonMismatch,
    ProjectionMismatch,
    cone_faces,
    conic_intrinsic_volumes,
    face_intrinsic_volumes,
    intrinsic_element,
    klivans_swartz_charpoly,
    try_exact_profile,
    verify_intrinsic_product,
)
from titskit.linalg import common_denominator
from titskit.scalars import T
from titskit.tits import (
    character,
    is_characteristic,
    takeuchi_element,
    unit_element,
)

from conftest import get_trio
from oracles import complement_gram, mc_profile_nearest, project_to_cone
from test_cone_oracle import KINDS, cones

QUADRANT = HomogeneousCone(dim=2, equalities=(), inequalities=((1, 0), (0, 1)))
HALFPLANE = HomogeneousCone(dim=2, equalities=(), inequalities=((1, 0),))
RAY = HomogeneousCone(dim=1, equalities=(), inequalities=((1,),))
LINE = HomogeneousCone(dim=2, equalities=((0, 1),), inequalities=())


def test_cone_faces_of_quadrant():
    faces = cone_faces(QUADRANT)
    assert [(sorted(f.active), f.dim) for f in faces] == [
        ([0, 1], 0),
        ([0], 1),
        ([1], 1),
        ([], 2),
    ]


def test_projection_examples():
    q, d = project_to_cone(QUADRANT, (-3, 5))
    assert q == (0, 5) and d == 1
    q, d = project_to_cone(QUADRANT, (-2, -7))
    assert q == (0, 0) and d == 0
    q, d = project_to_cone(QUADRANT, (Fraction(1, 3), Fraction(2, 7)))
    assert q == (Fraction(1, 3), Fraction(2, 7)) and d == 2
    # boundary points land in the face whose relative interior holds them
    q, d = project_to_cone(QUADRANT, (0, 5))
    assert q == (0, 5) and d == 1
    q, d = project_to_cone(LINE, (4, -9))
    assert q == (4, 0) and d == 1


def test_projection_rejects_corrupted_faces():
    # without the face x = 0, y > 0: (0, 5) would be named the interior
    # of the quadrant, and (-3, 5) would project to the apex
    faces = [f for f in cone_faces(QUADRANT) if f.active != {0}]
    with pytest.raises(ProjectionMismatch, match="not inside the face"):
        project_to_cone(QUADRANT, (0, 5), faces=faces)
    with pytest.raises(ProjectionMismatch, match="normal cone"):
        project_to_cone(QUADRANT, (-3, 5), faces=faces)
    with pytest.raises(ProjectionMismatch, match="no face"):
        project_to_cone(QUADRANT, (1, 1), faces=[])


def test_projection_onto_braid_chamber():
    arr, faces, _ = get_trio("braid3")
    cone = recession_cone(arr, faces.face((-1, -1, -1)))
    # project a point of the opposite chamber
    q, d = project_to_cone(cone, (3, 2, 1))
    assert d == 1
    assert q == (2, 2, 2)  # nearest point on x1 = x2 = x3
    q, d = project_to_cone(cone, (1, 2, 3))
    assert q == (1, 2, 3) and d == 3


def test_projection_matches_float_solver():
    opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(5)
    arr, faces, _ = get_trio("braid3")
    cones = [
        QUADRANT,
        HALFPLANE,
        recession_cone(arr, faces.face((-1, -1, -1))),
        recession_cone(arr, faces.face((0, -1, -1))),
    ]
    for cone in cones:
        for _ in range(3):
            p = [Fraction(int(v), 16) for v in rng.integers(-64, 64, cone.dim)]
            q, _ = project_to_cone(cone, p)
            exact = float(sum((a - b) ** 2 for a, b in zip(p, q)))
            pf = np.array([float(v) for v in p])
            cons = [
                {
                    "type": "ineq",
                    "fun": (lambda x, a=np.array(a, float): a @ x),
                }
                for a in cone.inequalities
            ] + [
                {
                    "type": "eq",
                    "fun": (lambda x, e=np.array(e, float): e @ x),
                }
                for e in cone.equalities
            ]
            res = opt.minimize(
                lambda x: ((x - pf) ** 2).sum(),
                np.zeros(cone.dim),
                method="SLSQP",
                constraints=cons,
            )
            assert res.success
            assert exact <= res.fun + 1e-6
            assert abs(exact - res.fun) <= 1e-4 * (1 + exact)


def test_exact_profiles():
    assert conic_intrinsic_volumes(QUADRANT).values == (0.25, 0.5, 0.25)
    assert conic_intrinsic_volumes(HALFPLANE).values == (0.0, 0.5, 0.5)
    assert conic_intrinsic_volumes(RAY).values == (0.5, 0.5)
    assert conic_intrinsic_volumes(LINE).values == (0.0, 1.0, 0.0)
    prof = conic_intrinsic_volumes(
        HomogeneousCone(dim=2, equalities=(), inequalities=())
    )
    assert prof.values == (0.0, 0.0, 1.0)
    assert prof.method == "exact"


def test_braid3_face_profiles():
    arr, faces, _ = get_trio("braid3")
    wall = face_intrinsic_volumes(arr, faces.face((0, -1, -1)))
    assert wall.values == (0.0, 0.5, 0.5, 0.0)
    chamber = face_intrinsic_volumes(arr, faces.face((-1, -1, -1)))
    assert chamber.method == "exact"
    assert abs(chamber.values[1] - 1 / 3) < 1e-15
    assert chamber.values[2] == 0.5
    assert abs(chamber.values[3] - 1 / 6) < 1e-15
    center = face_intrinsic_volumes(arr, faces.face((0, 0, 0)))
    assert center.values == (0.0, 1.0, 0.0, 0.0)


def test_braid4_edge_angles():
    arr, faces, _ = get_trio("braid4")
    x = math.acos(math.sqrt(3) / 3) / (2 * math.pi)
    y = math.acos(1 / 3) / (2 * math.pi)
    short = face_intrinsic_volumes(arr, faces.face(arr.sign_vector((0, 0, 1, 2))))
    long_ = face_intrinsic_volumes(arr, faces.face(arr.sign_vector((0, 1, 1, 2))))
    assert short.method == "exact" and long_.method == "exact"
    assert abs(short.values[3] - x) < 1e-12
    assert abs(long_.values[3] - y) < 1e-12
    assert abs(4 * short.values[3] + 2 * long_.values[3] - 1.0) < 1e-12
    assert short.values[2] == 0.5 and long_.values[2] == 0.5


def test_profiles_sum_to_one_and_alternate():
    names = ["braid3", "coord2", "triangle", "parallel+", "braid4",
             "signed3", "coord3", "generic34", "braid5"]
    for name in names:
        arr, faces, _ = get_trio(name)
        for f in faces:
            prof = try_exact_profile(recession_cone(arr, f))
            if prof is None:
                # braid5 chambers have essential dimension 4
                assert name == "braid5" and f.is_chamber()
                continue
            assert abs(prof.total() - 1.0) < 1e-12
            alt = prof.euler_alternation()
            if f.essentially_bounded:
                assert abs(abs(alt) - 1.0) < 1e-12
            else:
                # v_0 + v_2 + ... = v_1 + v_3 + ... = 1/2
                assert abs(alt) < 1e-12


@pytest.mark.parametrize(
    "name, numerators, den",
    [
        ("braid4", (0, 6, 11, 6, 1), 24),  # t(t+1)(t+2)(t+3)/4!
        ("signed3", (15, 23, 9, 1), 48),  # (t+1)(t+3)(t+5)/(2^3 3!)
        ("coord3", (1, 3, 3, 1), 8),  # the orthant: (t+1)^3/2^3
    ],
)
def test_exact_chamber_closed_forms(name, numerators, den):
    arr, faces, _ = get_trio(name)
    for c in faces.chambers():
        prof = face_intrinsic_volumes(arr, c)
        assert prof.method == "exact"
        for got, num in zip(prof.values, numerators):
            assert abs(got - num / den) < 1e-12


def test_polygon_with_a_missing_ray_is_rejected(monkeypatch):
    # a square cone has four rays; dropping one leaves two rays with a
    # single neighbour each
    square = HomogeneousCone(
        dim=3,
        equalities=(),
        inequalities=((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),
    )
    assert try_exact_profile(square).method == "exact"

    def without_first_ray(cone):
        lines, rays = _cone_rays(cone)
        return lines, rays[1:]

    monkeypatch.setattr(intrinsic, "_cone_rays", without_first_ray)
    with pytest.raises(PolygonMismatch, match="1 neighbouring rays"):
        try_exact_profile(square)


def _polar(cone):
    """The polar cone {y : y.r <= 0 on every ray r, y.l = 0 on the
    lineality space}, with integer rows."""
    lineality = complement_gram(cone.equalities + cone.inequalities, cone.dim)
    return HomogeneousCone(
        dim=cone.dim,
        equalities=tuple(
            tuple(int(c * common_denominator(v)) for c in v)
            for v in lineality
            if any(v)
        ),
        inequalities=tuple(
            tuple(-c for c in v) for _, _, v in _cone_rays(cone)[1]
        ),
    )


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_exact_profile_polar_duality(kind, data):
    # v_k(C) = v_(n-k)(C polar); C and its polar share the essential
    # dimension, so both are exact or neither is
    cone = data.draw(cones(kind))
    prof = try_exact_profile(cone)
    dual = try_exact_profile(_polar(cone))
    assert (prof is None) == (dual is None)
    if prof is not None:
        for a, b in zip(prof.values, reversed(dual.values)):
            assert abs(a - b) < 1e-12


# rows in {-1, 0, 1}^3, positive at (1, 1, 1) so the cone is solid; small
# entries keep the sampler on its int64 path
_solid3 = st.lists(
    st.tuples(*[st.integers(-1, 1)] * 3).filter(lambda a: sum(a) > 0),
    min_size=3,
    max_size=5,
    unique=True,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(rows=_solid3)
def test_exact_profile_matches_monte_carlo(rows):
    cone = HomogeneousCone(dim=3, equalities=(), inequalities=tuple(rows))
    exact = try_exact_profile(cone)
    mc = conic_intrinsic_volumes(cone, samples=200000, seed=0, force_mc=True)
    for a, b, h in zip(mc.values, exact.values, mc.half_width):
        assert abs(a - b) <= h


def test_monte_carlo_is_deterministic():
    a = conic_intrinsic_volumes(QUADRANT, samples=50000, seed=3, force_mc=True)
    b = conic_intrinsic_volumes(QUADRANT, samples=50000, seed=3, force_mc=True)
    assert a.values == b.values  # bit identical
    c = conic_intrinsic_volumes(QUADRANT, samples=50000, seed=4, force_mc=True)
    assert a.values != c.values
    assert a.method == "monte-carlo" and a.samples == 50000 and a.seed == 3


def test_monte_carlo_agrees_with_exact():
    for cone in [QUADRANT, HALFPLANE, RAY]:
        exact = conic_intrinsic_volumes(cone)
        mc = conic_intrinsic_volumes(cone, samples=200000, seed=0, force_mc=True)
        for a, b, h in zip(mc.values, exact.values, mc.half_width):
            assert abs(a - b) <= h
    arr, faces, _ = get_trio("braid3")
    cone = recession_cone(arr, faces.face((-1, -1, -1)))
    exact = conic_intrinsic_volumes(cone)
    mc = conic_intrinsic_volumes(cone, samples=200000, seed=1, force_mc=True)
    for a, b, h in zip(mc.values, exact.values, mc.half_width):
        assert abs(a - b) <= h


def test_monte_carlo_big_denominator_fallback():
    # the steep normal's face projections share a 34-bit denominator, past
    # the nearest-point kernel's int64 budget; the primitive sign-test rows
    # stay in int64 (WIDE below takes Python ints)
    steep = HomogeneousCone(
        dim=2, equalities=(), inequalities=((100000, 1),)
    )
    exact = conic_intrinsic_volumes(steep)
    assert exact.values == (0.0, 0.5, 0.5)
    mc = conic_intrinsic_volumes(steep, samples=2000, seed=0, force_mc=True)
    assert abs(mc.total() - 1.0) < 1e-12
    for a, b in zip(mc.values, exact.values):
        assert abs(a - b) <= 0.05


def _row_bound(cone):
    """The largest L1 norm of the sign-test rows of the cone's cells."""
    return max(
        (
            sum(map(abs, r))
            for _, inner, outer in intrinsic._cells(cone)
            for r in inner + outer
        ),
        default=0,
    )


_rng = random.Random(5)
# projected onto its faces' spans, its rows have entries of up to 145 bits
WIDE = HomogeneousCone(
    4,
    (),
    tuple(
        tuple(_rng.randint(-(10**5), 10**5) for _ in range(4))
        for _ in range(5)
    ),
)


@pytest.mark.parametrize(
    "cone, path",
    [
        (recession_cone(coordinate_arrangement(4), (1,) * 4), "int64"),
        (
            recession_cone(generic_arrangement(3, 4, seed=11), (-1,) * 4),
            "int64",
        ),
        (
            recession_cone(generic_arrangement(4, 5, seed=2), (-1,) * 5),
            "int64",
        ),
        (WIDE, "python-int"),
    ],
    # the first three ids name the path of the nearest-point kernel
    # (oracles.mc_profile_nearest), whose common denominator of every face
    # projection was 1, 17 bits and 112 bits on these cones
    ids=["int64", "big-samples", "big-matrices", "wide-rows"],
)
def test_mc_kernel_matches_exact_classifier(cone, path):
    # _mc_profile classifies the first chunk's dyadic points exactly as
    # project_to_cone and the nearest-point kernel do, on both of its
    # arithmetic paths: int64 while no row's L1 norm times max|x| reaches
    # _BIG, Python ints past that
    k, seed = 300, 7
    x = np.random.default_rng([seed, 0]).standard_normal((k, cone.dim))
    points = np.rint(x * intrinsic._SCALE).astype(int).tolist()
    bound = max(abs(c) for p in points for c in p)
    big = _row_bound(cone) * bound >= intrinsic._BIG
    assert big == (path == "python-int")
    faces = cone_faces(cone)
    counts = [0] * (cone.dim + 1)
    for p in points:
        counts[project_to_cone(cone, p, faces)[1]] += 1
    expected = tuple(float(c) / k for c in counts)
    assert intrinsic._mc_profile(cone, k, seed) == expected
    assert mc_profile_nearest(cone, k, seed) == expected


def test_mc_partition_is_checked(monkeypatch):
    # without the apex, the samples of its Moreau cell (the negative
    # quadrant) lie in no cell; the check is no assert, so python -O keeps it
    face_list = intrinsic._face_list

    def without_apex(cone):
        rays, faces = face_list(cone)
        assert faces[0][0] == {0, 1}  # the apex: both inequalities active
        return rays, faces[1:]

    monkeypatch.setattr(intrinsic, "_face_list", without_apex)
    with pytest.raises(ProjectionMismatch, match="no Moreau cell"):
        intrinsic._mc_profile(QUADRANT, 1000, 0)


def test_negative_seed_is_rejected():
    # numpy's seed sequences take no negative entropy; a cone that would
    # be exact is rejected too
    for force_mc in (False, True):
        with pytest.raises(ValueError, match="non-negative"):
            conic_intrinsic_volumes(QUADRANT, seed=-1, force_mc=force_mc)


def test_projections_computed_once_per_flat(monkeypatch):
    # every face span of a braid5 recession cone is a flat; the projection
    # cache is keyed by the lines of the span's rows
    arr, faces, lat = get_trio("braid5")
    calls = []
    projection = intrinsic.projection_matrix

    def counting(vectors, n):
        calls.append(vectors)
        return projection(vectors, n)

    monkeypatch.setattr(intrinsic, "projection_matrix", counting)
    intrinsic._line_complement.cache_clear()
    intrinsic_element(arr, faces, samples=10)
    assert len(lat) == 52
    assert 0 < len(calls) <= len(lat)


def test_each_routine_reads_its_cone_once(monkeypatch):
    # one reading of the rows (_cone_rays) feeds the faces, their
    # projections and the Moreau cells; a cone of essential dimension 4 is
    # read by try_exact_profile, then once more to sample it
    arr, faces, _ = get_trio("braid5")
    chamber_cone = recession_cone(
        arr, faces.face(arr.sign_vector((0, 1, 2, 3, 4)))
    )
    reads = []

    def counting(cone):
        reads.append(cone)
        return _cone_rays(cone)

    monkeypatch.setattr(intrinsic, "_cone_rays", counting)
    intrinsic._mc_profile(chamber_cone, 100, 0)
    assert len(reads) == 1
    reads.clear()
    prof = conic_intrinsic_volumes(chamber_cone, samples=100, seed=0)
    assert prof.method == "monte-carlo"
    assert reads == [chamber_cone, chamber_cone]
    # lines are read only there
    assert not hasattr(intrinsic, "_line")


def test_try_exact_profile_reports_unavailable():
    # a braid5 chamber has essential dimension 4
    arr, faces, _ = get_trio("braid5")
    chamber_cone = recession_cone(
        arr, faces.face(arr.sign_vector((0, 1, 2, 3, 4)))
    )
    assert try_exact_profile(chamber_cone) is None
    assert try_exact_profile(QUADRANT) is not None


def test_intrinsic_element_on_braid3():
    arr, faces, lat = get_trio("braid3")
    nu = intrinsic_element(arr, faces)
    assert all(p.method == "exact" for p in nu.profiles.values())
    top = character(lat, nu.element, lat.top)
    # chi_top(nu_t) = t^2
    assert abs(top.coefficient(2) - 1.0) < 1e-12
    assert abs(top.coefficient(1)) < 1e-12
    assert abs(top.coefficient(0)) < 1e-12
    assert is_characteristic(lat, nu.element, T, tol=nu.character_tolerance()).ok
    wall = nu.element.coeffs[(0, -1, -1)]
    assert abs(wall.coefficient(0) + 0.5) < 1e-12
    assert abs(wall.coefficient(1) - 0.5) < 1e-12


def test_intrinsic_element_interpolates_unit_and_takeuchi():
    for name in ["braid3", "triangle"]:
        arr, faces, lat = get_trio(name)
        nu = intrinsic_element(arr, faces)
        u = unit_element(faces)
        tau = takeuchi_element(faces)
        nu1 = nu.element.evaluate(1.0)
        num1 = nu.element.evaluate(-1.0)
        for target, got in ((u, nu1), (tau, num1)):
            keys = set(target.coeffs) | set(got.coeffs)
            for k in keys:
                assert abs(
                    float(target.coeffs.get(k, 0)) - got.coeffs.get(k, 0.0)
                ) < 1e-12


def test_intrinsic_element_characteristic_on_affine():
    arr, faces, lat = get_trio("triangle")
    nu = intrinsic_element(arr, faces)
    assert is_characteristic(lat, nu.element, T, tol=nu.character_tolerance()).ok


def test_klivans_swartz_exact_cases():
    _, faces, lat = get_trio("coord2")
    rep = klivans_swartz_charpoly(faces, lat)
    assert rep.estimate == (1.0, -2.0, 1.0)
    assert rep.exact == (1.0, -2.0, 1.0)
    assert rep.half_widths == (0.0, 0.0, 0.0)
    assert rep.ok()
    for name in ["braid3", "braid4", "signed3", "coord3", "generic34"]:
        _, faces, lat = get_trio(name)
        rep = klivans_swartz_charpoly(faces, lat)
        assert rep.ok() and max(rep.deviations) < 1e-12, name
        assert not any(rep.half_widths)


def test_klivans_swartz_monte_carlo():
    _, faces, lat = get_trio("braid4")
    rep = klivans_swartz_charpoly(
        faces, lat, samples=200000, seed=0, force_mc=True
    )
    assert rep.exact == (-6.0, 11.0, -6.0, 1.0)
    assert rep.ok()
    assert all(d < 0.05 for d in rep.deviations)


def test_intrinsic_product_identity():
    for name in ["braid3", "triangle", "coord2"]:
        arr, faces, _ = get_trio(name)
        nu = intrinsic_element(arr, faces)
        rep = verify_intrinsic_product(faces, nu, Fraction(2), Fraction(3))
        assert rep.ok and rep.max_deviation < 1e-9
        rep = verify_intrinsic_product(
            faces, nu, Fraction(-3, 2), Fraction(1, 2)
        )
        assert rep.ok


def test_profile_essential_values():
    prof = conic_intrinsic_volumes(QUADRANT)
    assert prof.essential_values(0) == (0.25, 0.5, 0.25)
    arr, faces, _ = get_trio("braid3")
    wall = face_intrinsic_volumes(arr, faces.face((0, -1, -1)))
    assert wall.essential_values(1) == (0.5, 0.5, 0.0)
