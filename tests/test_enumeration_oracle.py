"""Differential tests: the cocircuit-closure face enumeration against the
incremental LP enumerator in `oracles`, on random small rational
arrangements of each kind."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit.geometry import (
    Arrangement,
    NotAFace,
    canonicalize,
    enumerate_faces,
    face_dimension,
    is_essentially_bounded,
)
from titskit.linalg import matrix_rank

from oracles import enumerate_faces_lp

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
        assert f.dim == g.dim == face_dimension(arr, f.signs)
        assert f.essentially_bounded == g.essentially_bounded
        assert is_essentially_bounded(arr, f.signs) == g.essentially_bounded
        assert _same_span(f.hull_basis, g.hull_basis)
    signs = st.lists(st.sampled_from((-1, 0, 1)), min_size=arr.m, max_size=arr.m)
    for candidate in data.draw(st.lists(signs, max_size=4)):
        if tuple(candidate) in oracle:
            assert face_dimension(arr, candidate) == oracle.face(candidate).dim
        else:
            with pytest.raises(NotAFace):
                face_dimension(arr, candidate)
            with pytest.raises(NotAFace):
                is_essentially_bounded(arr, candidate)
