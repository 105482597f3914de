"""Differential tests: the star-factored Tits product against the pairwise
product in `oracles`, the flat-algebra product and Kung's identity
against their pairwise loops, the pushforward and support sums against
running sums of the scalars, and the characteristic polynomials of every
flat against sums of polynomials, on random small rational arrangements
of each kind and on the named arrangements; the flat product on join rows
also against the above-set kernel it replaced, out-of-range keys
included."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit.elements import adams_a, verify_kung
from titskit.geometry import FaceSet, NotAFace, enumerate_faces
from titskit.lattice import (
    IndexOutOfRange,
    build_lattice,
    charpoly_over,
    charpoly_under,
    subarrangement_map,
)
from titskit.scalars import Poly, T
from titskit.tits import (
    NotClosed,
    TitsElement,
    _divided,
    _support_sums,
    basis_element,
    chamber_sum,
    character,
    compose_signs,
    flat_multiply,
    is_characteristic,
    multiply,
    pushforward,
    q_basis,
    support_sum,
    takeuchi_element,
    unit_element,
)

from conftest import get_trio
from oracles import (
    characters_scan,
    charpoly_over_sum,
    charpoly_under_sum,
    flat_multiply_masks,
    flat_multiply_pairs,
    kung_pairs,
    multiply_pairs,
    pushforward_sum,
)
from test_enumeration_oracle import KINDS, arrangements

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SCALARS = {
    "rational": _fractions,
    "poly": st.lists(_fractions, min_size=1, max_size=3).map(Poly),
    "float": st.floats(min_value=-3, max_value=3, allow_nan=False),
}


# ints and Fractions in one element, with denominators up to 12
MIXED = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


def _element(data, arr, faces, scalar, scalars=SCALARS):
    """A sparse element on at most eight faces; a coefficient may be 0."""
    keys = data.draw(
        st.lists(st.sampled_from(faces.sign_vectors()), max_size=8, unique=True)
    )
    return TitsElement(arr, {k: data.draw(scalars[scalar]) for k in keys})


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
    # drop the product of two faces from the face set; when the product is
    # f or g, that factor is no longer a face of the set
    f, g = (data.draw(st.sampled_from(faces.sign_vectors())) for _ in range(2))
    product = compose_signs(f, g)
    partial = FaceSet(arr, [x for x in faces if x.signs != product])
    hf, hg = basis_element(arr, f), basis_element(arr, g)
    error = NotAFace if product in (f, g) else NotClosed
    for mult in (multiply, multiply_pairs):
        with pytest.raises(error):
            mult(partial, hf, hg)


def _all_fractions(values):
    return all(isinstance(c, Fraction) for c in values)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_mixed_rationals_match_running_sums(kind, data):
    """Integer numerators over one denominator give the running sums'
    values, and every rational result is a Fraction."""
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    lat = build_lattice(arr, faces)
    w = _element(data, arr, faces, "mixed", {"mixed": MIXED})
    v = _element(data, arr, faces, "mixed", {"mixed": MIXED})
    got = multiply(faces, w, v)
    assert got == multiply_pairs(faces, w, v)
    assert _all_fractions(got.coeffs.values())
    order = data.draw(st.permutations(range(arr.m)))
    fmap = subarrangement_map(arr, order[:data.draw(st.integers(0, arr.m))])
    image = pushforward(fmap, w)
    assert image == pushforward_sum(fmap, w)
    assert _all_fractions(image.coeffs.values())
    chars = [character(lat, w, x) for x in range(len(lat))]
    assert chars == characters_scan(lat.flats, w)
    assert _all_fractions(c for c in chars if c != 0)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_support_sum_reads_the_one_pass_sums(kind, data):
    """support_sum and chamber_sum read _support_sums, whose value at each
    flat is the running sum of the faces supported there, in the same
    order; a flat index outside [0, len) raises.  Characters, alone and in
    is_characteristic, are the scan's sums (exactly, for the exact
    scalars)."""
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    lat = build_lattice(arr, faces)
    for scalar in SCALARS:
        w = _element(data, arr, faces, scalar)
        sums = _divided(*_support_sums(lat, w))
        for x in range(len(lat)):
            scan = sum((c for s, c in w.coeffs.items()
                        if lat.support(s) == x), 0)
            assert support_sum(lat, w, x) == sums.get(x, 0) == scan
        assert chamber_sum(lat, w) == sums.get(lat.top, 0)
        for x in (-1, len(lat)):
            with pytest.raises(IndexOutOfRange):
                support_sum(lat, w, x)
        chars = [character(lat, w, x) for x in range(len(lat))]
        if scalar != "float":  # the scan adds floats in another order
            assert chars == characters_scan(lat.flats, w)
        t = {"rational": Fraction(-1), "poly": T, "float": 1.0}[scalar]
        assert [e[1] for e in is_characteristic(lat, w, t).entries] == chars


def _flat_element(data, lat, scalar):
    """A flat-algebra element on at most six flats, with an explicit zero."""
    u = data.draw(st.dictionaries(
        st.integers(0, len(lat) - 1), SCALARS[scalar], max_size=6
    ))
    u[data.draw(st.integers(0, len(lat) - 1))] = 0
    return u


def _assert_flat_close(got, want, u, v):
    """As `_assert_close`, on flat-algebra elements."""
    scale = sum(map(abs, u.values())) * sum(map(abs, v.values()))
    for k in set(got) | set(want):
        assert abs(got.get(k, 0.0) - want.get(k, 0.0)) <= 1e-12 * scale


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_flat_product_scalars_and_cancellation(kind, data):
    """Rational, polynomial and float coefficients, zero coefficients, and
    right factors whose push cancels at a flat of the left one."""
    arr = data.draw(arrangements(kind))
    lat = build_lattice(arr, enumerate_faces(arr))
    for scalar in SCALARS:
        u, v = _flat_element(data, lat, scalar), _flat_element(data, lat, scalar)
        got, want = flat_multiply(lat, u, v), flat_multiply_pairs(lat, u, v)
        if scalar == "float":
            _assert_flat_close(got, want, u, v)
        else:
            assert got == want
    # H_x (H_y - H_{x join y}) = 0, so the push at x and above cancels
    x, y, z = (data.draw(st.integers(0, len(lat) - 1)) for _ in range(3))
    c = data.draw(_fractions.filter(bool))
    v = {y: c}
    v[lat.join(x, y)] = v.get(lat.join(x, y), 0) - c
    u = {x: Fraction(1), z: data.draw(_fractions)}
    assert flat_multiply(lat, u, v) == flat_multiply_pairs(lat, u, v)
    assert flat_multiply(lat, {x: 1}, v) == {}


def _flat_products(lat, u, v):
    """flat_multiply and the mask kernel, each result or IndexOutOfRange."""
    out = []
    for kernel in (flat_multiply, flat_multiply_masks):
        try:
            out.append(kernel(lat, u, v))
        except IndexOutOfRange:
            out.append(IndexOutOfRange)
    return out


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_flat_product_matches_mask_kernel(kind, data):
    """The same pushes in the same order as the above-set kernel, so float
    results agree bit for bit; zero coefficients, empty operands, keys out
    of range in either operand, also after a cancelled push."""
    arr = data.draw(arrangements(kind))
    lat = build_lattice(arr, enumerate_faces(arr))
    n = len(lat)
    for scalar in SCALARS:
        flats = st.dictionaries(
            st.integers(-2, n + 1), SCALARS[scalar] | st.just(0), max_size=6
        )
        u, v = data.draw(flats), data.draw(flats)
        got, old = _flat_products(lat, u, v)
        assert got == old
        nonzero = [x for w in (u, v) for x, c in w.items() if c != 0]
        if all(0 <= x < n for x in nonzero):
            assert got != IndexOutOfRange
            if scalar != "float":
                assert got == flat_multiply_pairs(lat, u, v)
            for w in (u, v):
                assert _flat_products(lat, w, {}) == [{}, {}]
                assert _flat_products(lat, {}, w) == [{}, {}]
        else:
            assert got == IndexOutOfRange
    # H_x (H_y - H_{x join y}) = 0: the push at x cancels before a bad key
    x, y = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    cancels = {y: 1}
    cancels[lat.join(x, y)] = cancels.get(lat.join(x, y), 0) - 1
    for bad in (-1, n):
        for u, v in (({x: 1, bad: 1}, cancels), ({x: 1}, {**cancels, bad: 1})):
            assert _flat_products(lat, u, v) == [IndexOutOfRange] * 2
        zero = {x: 1, bad: 0}
        assert _flat_products(lat, zero, cancels) == [{}, {}]


@pytest.mark.parametrize("name", ["triangle", "parallel", "parallel+"])
def test_flat_product_without_a_bottom(name):
    """Affine lattices without a bottom: the Q basis products and every
    pair of basis flats, against both kernels."""
    _, _, lat = get_trio(name)
    q = q_basis(lat)
    for qx in q.values():
        for qy in q.values():
            got = flat_multiply(lat, qx, qy)
            assert got == flat_multiply_masks(lat, qx, qy)
            assert got == flat_multiply_pairs(lat, qx, qy)
    for x in range(len(lat)):
        for y in range(len(lat)):
            assert flat_multiply(lat, {x: 1}, {y: 1}) == {lat.join(x, y): 1}


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_charpolys_of_every_flat_match_polynomial_sums(kind, data):
    arr = data.draw(arrangements(kind))
    lat = build_lattice(arr, enumerate_faces(arr))
    for x in range(len(lat)):
        assert charpoly_under(lat, x) == charpoly_under_sum(lat, x)
        assert charpoly_over(lat, x) == charpoly_over_sum(lat, x)


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
def test_flat_product_below_the_floor_scales_one_push(name):
    """H_X Q_Y = Q_Y for every X <= Y, where every push reuses the first: a
    u on the flats below Y multiplies Q_Y by its coefficient sum, and by
    nothing when that sum is 0."""
    _, _, lat = get_trio(name)
    for y, qy in q_basis(lat).items():
        low = lat.below(y)
        u = {x: Fraction(k % 3 - 1, k + 2) for k, x in enumerate(low)}
        total = sum(u.values())
        want = {z: total * c for z, c in qy.items() if total}
        assert flat_multiply(lat, u, qy) == want
        assert want == flat_multiply_pairs(lat, u, qy)
        if low[0] != y:
            assert flat_multiply(lat, {low[0]: 2, y: -2}, qy) == {}


# s = 0, t = 0, both, and denominators 2 to 7 on either side
KUNG_EDGES = [
    (0, 2), (0, Fraction(-3, 7)), (Fraction(4, 7), 0), (-3, 0), (0, 0),
    (Fraction(1, 2), Fraction(-1, 3)), (Fraction(-3, 4), Fraction(2, 5)),
    (Fraction(5, 6), Fraction(-6, 7)), (Fraction(3, 7), Fraction(7, 2)),
]


@pytest.mark.parametrize("name", ["braid5", "signed3", "coord6", "triangle"])
@pytest.mark.parametrize("s, t", KUNG_EDGES)
def test_kung_edge_parameters_match_pairwise_oracle(name, s, t):
    _, _, lat = get_trio(name)
    rep = verify_kung(lat, s, t)
    got = (rep.lhs, rep.flat_sum, rep.pair_sum)
    assert got == kung_pairs(lat, s, t)
    assert all(type(v) is Fraction for v in got)
    assert rep.ok


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
    for x in range(len(lat)):
        assert charpoly_under(lat, x) == charpoly_under_sum(lat, x)
        assert charpoly_over(lat, x) == charpoly_over_sum(lat, x)
