"""Differential tests: cone faces, implicit equalities and projections from
the covectors of the cone's rows, against the LP versions in `oracles`, on
random small cones and on recession cones of random arrangements."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit.geometry import HomogeneousCone, enumerate_faces, recession_cone
from titskit.intrinsic import cone_faces, project_to_cone

from oracles import cone_faces_lp, implicit_equalities_lp, project_to_cone_lp
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
