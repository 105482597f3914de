"""Differential tests: the cocircuit-closure face enumeration against the
incremental LP enumerator in `oracles`, on random small rational
arrangements of each kind; and the conformal closure, its below-sets, its
witness check and the cocircuits' dot rows against the all-cocircuit
closure in `oracles`, on those arrangements and on braid, signed-braid
and coordinate arrangements."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit.elements import (
    braid_arrangement,
    coordinate_arrangement,
    signed_braid_arrangement,
)
from titskit.geometry import (
    Arrangement,
    NotAFace,
    _bits,
    _cocircuits,
    _cone_rays,
    _covectors,
    _lift,
    canonicalize,
    enumerate_faces,
    recession_cone,
)
from titskit.intrinsic import cone_faces
from titskit.linalg import _idot, matrix_rank

from oracles import (
    below_scan,
    cone_faces_closure,
    cone_rays_below,
    covectors_all,
    enumerate_faces_closure,
    enumerate_faces_lp,
)

KINDS = ("central", "affine", "parallel", "non-essential", "empty")

_offsets = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def arrangements(draw, kind):
    """At most six distinct hyperplanes in R^1..R^3.  Non-essential ones
    never use the last coordinate; parallel ones draw every normal from at
    most three, so that hyperplanes share normals."""
    dim = draw(st.integers(2 if kind == "non-essential" else 1, 3))
    if kind == "empty":
        return Arrangement(dim=dim, hyperplanes=())
    used = dim - 1 if kind == "non-essential" else dim
    normal = st.lists(st.integers(-3, 3), min_size=used, max_size=used).filter(any)
    if kind == "parallel":
        normal = st.sampled_from(draw(st.lists(normal, min_size=1, max_size=3)))
    offset = st.just(Fraction(0)) if kind == "central" else _offsets
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(normal, offset), min_size=m, max_size=m))
    hyperplanes = {}
    for a, b in rows:
        h = canonicalize(list(a) + [0] * (dim - used), b)
        hyperplanes.setdefault((h.normal, h.offset), h)
    return Arrangement(dim=dim, hyperplanes=tuple(hyperplanes.values()), kind=kind)


def _same_span(a, b):
    return len(a) == len(b) == matrix_rank(list(a) + list(b))


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_enumeration_matches_lp_oracle(kind, data):
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    oracle = enumerate_faces_lp(arr)
    assert set(faces.sign_vectors()) == set(oracle.sign_vectors())
    for f in faces:
        g = oracle.face(f.signs)
        assert arr.sign_vector(f.witness) == f.signs
        assert f.dim == g.dim
        assert f.essentially_bounded == g.essentially_bounded
        assert _same_span(f.hull_basis, g.hull_basis)
    signs = st.lists(st.sampled_from((-1, 0, 1)), min_size=arr.m, max_size=arr.m)
    for candidate in data.draw(st.lists(signs, max_size=4)):
        if tuple(candidate) in oracle:
            assert faces.face(candidate).dim == oracle.face(candidate).dim
        else:
            with pytest.raises(NotAFace):
                faces.face(candidate)


FAMILIES = {
    "braid": st.builds(braid_arrangement, st.integers(2, 5)),
    "signed": st.builds(signed_braid_arrangement, st.integers(1, 3)),
    "coordinate": st.builds(coordinate_arrangement, st.integers(1, 5)),
}


def _records(faces):
    return [
        (f.signs, f.witness, f.dim, f.essentially_bounded, f.hull_basis)
        for f in faces
    ]


@pytest.mark.parametrize("kind", KINDS + tuple(FAMILIES))
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_conformal_closure_matches_all_cocircuit_oracle(kind, data):
    arr = data.draw(FAMILIES[kind] if kind in FAMILIES else arrangements(kind))
    m = arr.m
    rows = _lift(arr)
    cocircuits = _cocircuits(rows)
    oracle = [c[:3] for c in cocircuits]
    for _, _, v, dots in cocircuits:
        assert list(dots) == [_idot(row, v) for row in rows]
    # from the zero covector the closure is every covector; from the
    # cocircuits with x0 = + it is the faces, each with its below-set
    everything = _covectors(cocircuits, m + 1, [(0, 0)])
    assert set(everything) == covectors_all(oracle, m + 1)
    start = [c[:2] for c in cocircuits if c[0] >> m & 1]
    faces = _covectors(cocircuits, m + 1, start)
    assert set(faces) == {x for x in covectors_all(oracle, m) if x[0] >> m & 1}
    for (p, q), below in everything.items():
        assert [cocircuits[i][:3] for i in _bits(below)] == below_scan(oracle, p, q)
        assert faces.get((p, q), below) == below
    assert _records(enumerate_faces(arr)) == _records(enumerate_faces_closure(arr))


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_cone_faces_match_closure_oracle(kind, data):
    arr = data.draw(arrangements(kind))
    for f in enumerate_faces(arr):
        cone = recession_cone(arr, f)
        assert _cone_rays(cone) == cone_rays_below(cone)
        assert cone_faces(cone) == cone_faces_closure(cone)
