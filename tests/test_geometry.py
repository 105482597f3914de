import itertools
import json
from fractions import Fraction

import pytest

from titskit import geometry
from titskit.geometry import (
    DuplicateHyperplane,
    NotAFace,
    WitnessMismatch,
    ZeroNormal,
    arrangement_from_json,
    arrangement_to_json,
    canonicalize,
    enumerate_faces,
    lineality_space,
    make_arrangement,
    recession_cone,
    signs_to_str,
    str_to_signs,
)
from titskit.lp import (
    DimensionMismatch,
    WitnessViolation,
    _checked_witness,
    lp_feasible,
)

from conftest import get_trio
from oracles import _essentially_bounded


def test_canonicalize_scaling():
    h = canonicalize((Fraction(1, 2), Fraction(-3, 2)), Fraction(5, 2))
    assert h.normal == (1, -3)
    assert h.offset == Fraction(5)
    # sign fixed by the first nonzero coordinate
    h2 = canonicalize((-2, 6), -10)
    assert h2.normal == (1, -3)
    assert h2.offset == Fraction(5)
    assert h == h2


def test_canonicalize_rejects_zero_normal():
    with pytest.raises(ZeroNormal):
        canonicalize((0, 0), 1)


def test_duplicate_hyperplanes_rejected():
    with pytest.raises(DuplicateHyperplane):
        make_arrangement(2, [((1, 0), 0), ((-2, 0), 0)])


def test_lp_feasible_basic():
    # x > 0, y > 0, x + y = 1
    w = lp_feasible(
        2,
        equalities=[((1, 1), 1)],
        strict_inequalities=[((1, 0), 0), ((0, 1), 0)],
    )
    assert w is not None
    assert w[0] + w[1] == 1 and w[0] > 0 and w[1] > 0
    # x > 0 and x < -1 is empty
    assert (
        lp_feasible(
            1, strict_inequalities=[((1,), 0), ((-1,), 1)]
        )
        is None
    )


def test_lp_feasible_equality_only_and_unbounded_direction():
    w = lp_feasible(2, equalities=[((1, -1), 0)])
    assert w is not None and w[0] == w[1]
    # strict feasibility on an unbounded region still terminates
    w = lp_feasible(2, strict_inequalities=[((1, 0), 100)])
    assert w is not None and w[0] > 100


def test_lp_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp_feasible(2, equalities=[((1,), 0)])


def test_lp_witness_breaking_a_constraint_raises():
    # the point (1, 0) breaks one constraint of each kind, the strict one
    # on its boundary; the checks are raises, so they hold under python -O
    point = (Fraction(1), Fraction(0))
    x_is_1, x_above_0, y_at_least_0 = ([1, 0], 1), ([1, 0], 0), ([0, 1], 0)
    assert _checked_witness(
        point, [x_is_1], [x_above_0], [y_at_least_0]
    ) == point
    for eqs, stricts, weaks in (
        ([([1, 0], 2)], [x_above_0], [y_at_least_0]),
        ([x_is_1], [([1, 0], 1)], [y_at_least_0]),
        ([x_is_1], [x_above_0], [([0, 1], 1)]),
    ):
        with pytest.raises(WitnessViolation):
            _checked_witness(point, eqs, stricts, weaks)


def _brute_force_sign_vectors(arr):
    """Independent oracle: scan all 3^m candidate sign vectors with one LP
    apiece."""
    out = set()
    for signs in itertools.product((-1, 0, 1), repeat=arr.m):
        eqs = []
        stricts = []
        for s, h in zip(signs, arr.hyperplanes):
            if s == 0:
                eqs.append((h.normal, h.offset))
            elif s > 0:
                stricts.append((h.normal, h.offset))
            else:
                stricts.append(
                    (tuple(-c for c in h.normal), -h.offset)
                )
        if lp_feasible(arr.dim, equalities=eqs, strict_inequalities=stricts):
            out.add(signs)
    return out


@pytest.mark.parametrize(
    "name", ["braid3", "coord2", "triangle", "parallel+", "generic23"]
)
def test_enumeration_matches_brute_force(name):
    arr, faces, _ = get_trio(name)
    assert set(faces.sign_vectors()) == _brute_force_sign_vectors(arr)


@pytest.mark.parametrize(
    "name,count,by_dim",
    [
        ("braid3", 13, {1: 1, 2: 6, 3: 6}),
        ("braid4", 75, {1: 1, 2: 14, 3: 36, 4: 24}),
        ("coord2", 9, {0: 1, 1: 4, 2: 4}),
        ("signed2", 17, {0: 1, 1: 8, 2: 8}),
        ("triangle", 19, {0: 3, 1: 9, 2: 7}),
        ("parallel", 5, {1: 2, 2: 3}),
        ("empty2", 1, {2: 1}),
    ],
)
def test_face_census(name, count, by_dim):
    _, faces, _ = get_trio(name)
    assert len(faces) == count
    assert faces.counts_by_dim() == by_dim


def test_face_witnesses_realize_signs():
    for name in ["braid3", "triangle", "signed2", "parallel+"]:
        arr, faces, _ = get_trio(name)
        for f in faces:
            assert arr.sign_vector(f.witness) == f.signs
            # hull basis spans directions staying inside the affine hull
            for v in f.hull_basis:
                for s, h in zip(f.signs, arr.hyperplanes):
                    if s == 0:
                        assert sum(
                            a * b for a, b in zip(h.normal, v)
                        ) == 0


def test_wrong_witness_raises(monkeypatch):
    # dropping a conformal cocircuit from each witness sum (the lowest bit
    # of each below-set) leaves the origin of braid3 without a witness;
    # the check is not an assert
    covectors = geometry._covectors

    def drop_one(*args):
        return {x: below & (below - 1) for x, below in covectors(*args).items()}

    monkeypatch.setattr(geometry, "_covectors", drop_one)
    with pytest.raises(WitnessMismatch):
        enumerate_faces(get_trio("braid3")[0])


def test_wrong_dot_row_raises(monkeypatch):
    # the witness check sums the cocircuits' precomputed dot rows; a wrong
    # entry in the row of braid3's cocircuit with x0 = + (the origin) puts
    # the origin's witness off a hyperplane it lies on
    cocircuits = geometry._cocircuits

    def corrupt(rows):
        out = cocircuits(rows)
        i = next(i for i, c in enumerate(out) if c[0] >> len(rows) - 1 & 1)
        p, q, v, dots = out[i]
        out[i] = (p, q, v, (dots[0] + 1,) + dots[1:])
        return out

    monkeypatch.setattr(geometry, "_cocircuits", corrupt)
    with pytest.raises(WitnessMismatch):
        enumerate_faces(get_trio("braid3")[0])


def test_enumeration_insertion_order_invariant():
    arr, faces, _ = get_trio("triangle")
    rows = [(h.normal, h.offset) for h in arr.hyperplanes]
    for perm in itertools.permutations(range(3)):
        shuffled = make_arrangement(2, [rows[i] for i in perm])
        refaces = enumerate_faces(shuffled)
        expected = {
            tuple(signs[i] for i in perm) for signs in faces.sign_vectors()
        }
        assert set(refaces.sign_vectors()) == expected


def test_face_dimension_and_not_a_face():
    _, faces, _ = get_trio("braid3")
    # chamber x1 < x2 < x3: pairs (0,1), (0,2), (1,2) all negative
    assert faces.face((-1, -1, -1)).dim == 3
    assert faces.face((0, 0, 0)).dim == 1
    # x1 > x2, x2 > x3 forces x1 > x3
    with pytest.raises(NotAFace):
        faces.face((1, -1, 1))
    with pytest.raises(NotAFace):
        faces.face((1, 1))  # wrong length


def test_chambers_and_boundedness():
    arr, faces, _ = get_trio("triangle")
    chambers = faces.chambers()
    assert len(chambers) == 7
    bounded = [f for f in chambers if f.essentially_bounded]
    assert len(bounded) == 1  # the open triangle
    for f in faces:
        assert f.essentially_bounded == _essentially_bounded(arr, f.signs)
    # vertices are bounded, edges of the triangle are bounded, rays are not
    assert sum(1 for f in faces if f.essentially_bounded) == 7  # 3+3+1


def test_recession_cone_of_bounded_face_is_lineality():
    arr, faces, _ = get_trio("parallel")
    # the middle strip 0 < x < 1 recedes only along the vertical lineality
    strip = faces.face((1, -1))
    cone = recession_cone(arr, strip)
    assert cone.dim == 2
    w = lp_feasible(
        2,
        equalities=[(e, 0) for e in cone.equalities],
        weak_inequalities=[(a, 0) for a in cone.inequalities]
        + [((0, 1), 1)],
    )
    assert w is not None  # vertical direction recedes
    assert (
        lp_feasible(
            2,
            equalities=[(e, 0) for e in cone.equalities],
            weak_inequalities=[(a, 0) for a in cone.inequalities]
            + [((1, 0), 1)],
        )
        is None
    )  # horizontal direction does not


def test_lineality_dimensions():
    assert len(lineality_space(get_trio("braid3")[0])) == 1
    assert len(lineality_space(get_trio("braid4")[0])) == 1
    assert len(lineality_space(get_trio("coord3")[0])) == 0
    assert len(lineality_space(get_trio("parallel")[0])) == 1
    assert len(lineality_space(get_trio("empty2")[0])) == 2


def test_min_face_dim_equals_lineality_dim():
    for name in ["braid3", "coord2", "triangle", "parallel", "signed2"]:
        arr, faces, _ = get_trio(name)
        assert faces.min_dim == len(lineality_space(arr))


def test_sign_string_round_trip():
    signs = (1, -1, 0, 1)
    assert signs_to_str(signs) == "+-0+"
    assert str_to_signs("+-0+") == signs


def test_arrangement_json_round_trip(tmp_path):
    arr, _, _ = get_trio("triangle")
    data = arrangement_to_json(arr)
    text = json.dumps(data)
    back = arrangement_from_json(json.loads(text))
    assert back.dim == arr.dim
    assert back.hyperplanes == arr.hyperplanes
    assert back.fingerprint() == arr.fingerprint()


def test_fingerprint_ignores_input_scaling_and_kind():
    a = make_arrangement(2, [((1, 0), 0), ((1, 1), 1)], kind="one")
    b = make_arrangement(
        2, [((Fraction(1, 3), 0), 0), ((-2, -2), -2)], kind="two"
    )
    assert a.fingerprint() == b.fingerprint()


def test_sign_vector_evaluation():
    arr, _, _ = get_trio("coord2")
    assert arr.sign_vector((5, -2)) in {(1, -1), (-1, 1)}
    assert arr.sign_vector((0, 0)) == (0, 0)
