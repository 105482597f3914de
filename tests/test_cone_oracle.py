"""Differential tests: cone faces and implicit equalities from the covectors
of the cone's rows, and the nearest-point classifier on those faces,
against the LP versions in `oracles`, on random small cones and on
recession cones of random arrangements; and the projection cache behind
cone faces, exact profiles and Moreau cells against the Gram projection
of every face span of those recession cones."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit.geometry import HomogeneousCone, enumerate_faces, recession_cone
from titskit.intrinsic import _complement, cone_faces
from titskit.linalg import projection_matrix

from oracles import (
    common_denominator,
    cone_faces_lp,
    implicit_equalities_lp,
    line_gcd,
    project_to_cone,
    project_to_cone_lp,
    projection_matrix_gram,
    rref,
)
from test_enumeration_oracle import KINDS as ARRANGEMENT_KINDS
from test_enumeration_oracle import arrangements

KINDS = (
    "general",
    "no-inequalities",
    "subspace",
    "lineality",
    "solid",
    "central",
    "affine",
)


@st.composite
def cones(draw, kind):
    """Cones in R^1..R^4 with at most six inequalities, drawn from a pool
    of at most five rows, so duplicates are common.  General cones have at
    most one equality, which may repeat a pooled row, and may carry an
    opposite row or the sum of two inequalities, which is redundant; zero
    rows turn up on their own.  Subspace cones have only opposite pairs of
    inequalities, so every inequality is an implicit equality; lineality
    cones never use the last coordinate, so they contain a line.  Solid
    cones have four to six distinct inequalities in R^3 or R^4, each
    positive at (1, ..., 1), so that they have many faces."""
    if kind in ("central", "affine"):
        arr = draw(arrangements(kind))
        face = draw(st.sampled_from(list(enumerate_faces(arr))))
        return recession_cone(arr, face)
    if kind == "solid":
        dim = draw(st.integers(3, 4))
        row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
        ineqs = draw(
            st.lists(
                row.filter(lambda a: sum(a) > 0).map(tuple),
                min_size=4,
                max_size=6,
                unique=True,
            )
        )
        return HomogeneousCone(dim=dim, equalities=(), inequalities=tuple(ineqs))
    dim = draw(st.integers(2 if kind == "lineality" else 1, 4))
    used = dim - 1 if kind == "lineality" else dim
    row = st.lists(st.integers(-2, 2), min_size=used, max_size=used).map(
        lambda a: tuple(a) + (0,) * (dim - used)
    )
    if kind == "no-inequalities":
        eqs = draw(st.lists(row, max_size=3))
        return HomogeneousCone(dim=dim, equalities=tuple(eqs), inequalities=())
    pool = draw(st.lists(row, min_size=1, max_size=5))
    ineqs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    eqs = []
    if kind == "subspace":
        ineqs = ineqs[:3] + [tuple(-c for c in a) for a in ineqs[:3]]
    else:
        eqs = draw(st.lists(st.one_of(row, st.sampled_from(pool)), max_size=1))
        extra = draw(st.sampled_from((None, "opposite", "redundant")))
        a, b = ineqs[0], ineqs[-1]
        if extra == "opposite":
            ineqs.append(tuple(-c for c in a))
        elif extra == "redundant":
            ineqs.append(tuple(x + y for x, y in zip(a, b)))
    ineqs = draw(st.permutations(ineqs))
    return HomogeneousCone(
        dim=dim, equalities=tuple(eqs), inequalities=tuple(ineqs)
    )


_coords = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_cone_faces_match_lp_oracle(kind, data):
    cone = data.draw(cones(kind))
    faces = cone_faces(cone)
    assert faces == cone_faces_lp(cone)
    # the last face, with the fewest active rows, is the cone itself
    assert faces[-1].active == implicit_equalities_lp(cone)
    point = st.lists(_coords, min_size=cone.dim, max_size=cone.dim)
    for p in data.draw(st.lists(point, min_size=1, max_size=3)):
        q, dim = project_to_cone_lp(cone, p, faces)
        assert project_to_cone(cone, p) == (q, dim)
        # q is its own projection and often lies on a proper face
        assert project_to_cone(cone, q, faces) == project_to_cone_lp(
            cone, q, faces
        )


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(data=st.data())
def test_projection_matrix_matches_gram_oracle(data):
    # dependent and zero vectors included: the one elimination of
    # [B B^T | B] needs no basis first
    n = data.draw(st.integers(1, 4))
    vec = st.lists(_coords, min_size=n, max_size=n).map(tuple)
    vectors = data.draw(st.lists(vec, max_size=5))
    assert projection_matrix(vectors, n) == projection_matrix_gram(vectors, n)


@pytest.mark.parametrize("kind", ARRANGEMENT_KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_complement_matches_gram_oracle(kind, data):
    # every face span of every recession cone, the lineality space (all
    # inequalities active) included: n - rank and den (I - P_gram), with
    # P_gram the projection onto the span of the rows
    arr = data.draw(arrangements(kind))
    n = arr.dim
    for f in enumerate_faces(arr):
        cone = recession_cone(arr, f)
        for face in cone_faces(cone):
            rows = list(cone.equalities) + [
                cone.inequalities[i] for i in sorted(face.active)
            ]
            p = projection_matrix_gram(rows, n)
            den = common_denominator(c for row in p for c in row)
            m = tuple(
                tuple(den * (i == j) - c * den for j, c in enumerate(row))
                for i, row in enumerate(p)
            )
            dim = n - len(rref(rows)[1])
            lines = [line_gcd(r) if any(r) else None for r in rows]
            assert _complement(lines, n) == (dim, den, m)
