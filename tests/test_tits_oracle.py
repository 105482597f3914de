"""Differential tests: the star-factored Tits product against the pairwise
product in `oracles`, and the flat-algebra product and Kung's identity
against their pairwise loops, on random small rational arrangements of
each kind and on the named arrangements."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit.elements import adams_a, verify_kung
from titskit.geometry import FaceSet, enumerate_faces
from titskit.lattice import build_lattice
from titskit.scalars import Poly
from titskit.tits import (
    NotClosed,
    TitsElement,
    basis_element,
    compose_signs,
    flat_multiply,
    multiply,
    q_basis,
    takeuchi_element,
    unit_element,
)

from conftest import get_trio
from oracles import flat_multiply_pairs, kung_pairs, multiply_pairs
from test_enumeration_oracle import KINDS, arrangements

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SCALARS = {
    "rational": _fractions,
    "poly": st.lists(_fractions, min_size=1, max_size=3).map(Poly),
    "float": st.floats(min_value=-3, max_value=3, allow_nan=False),
}


def _element(data, arr, faces, scalar):
    """A sparse element on at most eight faces; a coefficient may be 0."""
    keys = data.draw(
        st.lists(st.sampled_from(faces.sign_vectors()), max_size=8, unique=True)
    )
    return TitsElement(arr, {k: data.draw(SCALARS[scalar]) for k in keys})


def _assert_close(got, want, w, v):
    """Float products agree to 1e-12 relative to the largest sum the
    pairwise product can form."""
    scale = sum(abs(c) for c in w.coeffs.values()) * sum(
        abs(c) for c in v.coeffs.values()
    )
    for key in set(got.coeffs) | set(want.coeffs):
        diff = got.coeffs.get(key, 0.0) - want.coeffs.get(key, 0.0)
        assert abs(diff) <= 1e-12 * scale


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_product_matches_pairwise_oracle(kind, data):
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    for scalar in SCALARS:
        w = _element(data, arr, faces, scalar)
        v = _element(data, arr, faces, scalar)
        got, want = multiply(faces, w, v), multiply_pairs(faces, w, v)
        if scalar == "float":
            _assert_close(got, want, w, v)
        else:
            assert got == want
    tau, unit = takeuchi_element(faces), unit_element(faces)
    assert multiply(faces, tau, tau) == unit == multiply_pairs(faces, tau, tau)
    for f in faces:
        h = basis_element(arr, f.signs)
        assert multiply(faces, unit, h) == h == multiply(faces, h, unit)
    # drop the product of two faces from the face set
    f, g = (data.draw(st.sampled_from(faces.sign_vectors())) for _ in range(2))
    product = compose_signs(f, g)
    partial = FaceSet(arr, [x for x in faces if x.signs != product])
    hf, hg = basis_element(arr, f), basis_element(arr, g)
    for mult in (multiply, multiply_pairs):
        with pytest.raises(NotClosed):
            mult(partial, hf, hg)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_flat_product_and_kung_match_pairwise_oracle(kind, data):
    arr = data.draw(arrangements(kind))
    lat = build_lattice(arr, enumerate_faces(arr))
    q = q_basis(lat)
    for qx in q.values():
        for qy in q.values():
            assert flat_multiply(lat, qx, qy) == flat_multiply_pairs(lat, qx, qy)
    flat_elements = st.dictionaries(
        st.integers(0, len(lat) - 1), _fractions, max_size=6
    )
    u, v = data.draw(flat_elements), data.draw(flat_elements)
    assert flat_multiply(lat, u, v) == flat_multiply_pairs(lat, u, v)
    s, t = data.draw(_fractions), data.draw(_fractions)
    rep = verify_kung(lat, s, t)
    assert (rep.lhs, rep.flat_sum, rep.pair_sum) == kung_pairs(lat, s, t)


@pytest.mark.parametrize("name", ["braid4", "signed3", "coord4", "triangle"])
def test_identities_match_pairwise_oracle(name):
    arr, faces, lat = get_trio(name)
    tau = takeuchi_element(faces)
    assert multiply(faces, tau, tau) == multiply_pairs(faces, tau, tau)
    if arr.kind == "braid":
        a = adams_a(faces)
        left, right = a.evaluate(Fraction(2)), a.evaluate(Fraction(-1, 3))
        prod = multiply(faces, left, right)
        assert prod == multiply_pairs(faces, left, right)
        assert prod == a.evaluate(Fraction(-2, 3))
    q = q_basis(lat)
    for qx in q.values():
        for qy in q.values():
            assert flat_multiply(lat, qx, qy) == flat_multiply_pairs(lat, qx, qy)
