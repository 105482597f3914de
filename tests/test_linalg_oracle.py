"""Differential tests: the fraction-free elimination in `titskit.linalg` and
the integer exact profiles of `titskit.intrinsic` against the Fraction
elimination and the Fraction exact profiles in `oracles`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit.geometry import HomogeneousCone, enumerate_faces, recession_cone
from titskit.intrinsic import PolygonMismatch, try_exact_profile
from titskit.linalg import matrix_rank, nullspace, projection_matrix, rref

from conftest import get_trio
from oracles import (
    nullspace_rref,
    projection_matrix_rref,
    rref as rref_fraction,
    try_exact_profile_fraction,
)
from test_cone_oracle import KINDS as CONE_KINDS
from test_cone_oracle import cones
from test_enumeration_oracle import KINDS, arrangements

_ints = st.integers(-5, 5)
_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def matrices(draw):
    """Up to five rows of one to five int or Fraction entries, then zero
    rows and rows dependent on the others (rational combinations of two
    drawn rows), shuffled in."""
    ncols = draw(st.integers(1, 5))
    mixed = st.one_of(_ints, _fractions)
    entry = draw(st.sampled_from((_ints, _fractions, mixed)))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        rows.append([0] * ncols)
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_fractions), draw(_fractions)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return ncols, draw(st.permutations(rows))


def _check(rows, ncols):
    m, pivots = rref(rows)
    want, want_pivots = rref_fraction(rows)
    assert (m, pivots) == (want, want_pivots)
    assert all(type(c) is Fraction for r in m for c in r)
    assert matrix_rank(rows) == len(want_pivots)
    assert nullspace(rows, ncols) == nullspace_rref(rows, ncols)
    assert projection_matrix(rows, ncols) == projection_matrix_rref(rows, ncols)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=matrices())
def test_elimination_matches_fraction_oracle(data):
    ncols, rows = data
    _check(rows, ncols)


@pytest.mark.parametrize(
    "rows",
    [
        # the second row eliminates to zero: its gcd is 0, not a divisor
        [[1, 2, 3], [2, 4, 6]],
        [[Fraction(1, 2), 1], [1, 2], [0, 0]],
        [[0, 0], [0, 0]],
        [[3], [-6], [Fraction(1, 4)]],
        [[0], [0]],
        [[2, 4], [3, 5]],
        [[6, 4, 2]],
    ],
)
def test_elimination_edge_cases(rows):
    _check(rows, len(rows[0]))


def test_no_rows():
    assert rref([]) == rref_fraction([]) == ([], [])
    assert matrix_rank([]) == 0
    for n in (1, 3):
        assert nullspace([], n) == nullspace_rref([], n)
        assert projection_matrix([], n) == projection_matrix_rref([], n)


def _profile(cone):
    """The cone's exact profile from `try_exact_profile` and from the
    oracle: each its method and floats as hex, None, or the message of the
    PolygonMismatch it raises."""

    def run(fn):
        try:
            prof = fn(cone)
        except PolygonMismatch as exc:
            return "PolygonMismatch", str(exc)
        if prof is None:
            return None
        return (
            prof.method,
            [v.hex() for v in prof.values],
            [v.hex() for v in prof.half_width],
        )

    return run(try_exact_profile), run(try_exact_profile_fraction)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_exact_profiles_match_fraction_oracle_on_arrangements(kind, data):
    arr = data.draw(arrangements(kind))
    for f in enumerate_faces(arr):
        got, want = _profile(recession_cone(arr, f))
        assert got == want


@pytest.mark.parametrize("kind", CONE_KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_exact_profiles_match_fraction_oracle_on_cones(kind, data):
    got, want = _profile(data.draw(cones(kind)))
    assert got == want


@st.composite
def skew_cones(draw):
    """Cones in R^3 or R^4 whose rows are orthogonal to a drawn integer w,
    so that the lineality space holds w.  The projections then have
    denominators such as |w|^2 that are not powers of two, so dividing by
    the wrong scale changes a rounding; the lineality cones of
    `test_cone_oracle` lie along an axis, whose projection is integer."""
    dim = draw(st.integers(3, 4))
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    w = draw(vec.filter(any))
    ww = sum(c * c for c in w)
    rows = []
    for a in draw(st.lists(vec, min_size=2, max_size=5)):
        aw = sum(x * y for x, y in zip(a, w))
        row = tuple(ww * x - aw * y for x, y in zip(a, w))
        if any(row):
            rows.append(row)
    return HomogeneousCone(dim=dim, equalities=(), inequalities=tuple(rows))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(cone=skew_cones())
def test_exact_profiles_match_fraction_oracle_on_skew_lineality(cone):
    got, want = _profile(cone)
    assert got == want


@pytest.mark.parametrize("name", ["braid4", "braid5", "signed3", "generic34"])
def test_exact_profiles_match_fraction_oracle_on_every_recession_cone(name):
    arr, faces, _ = get_trio(name)
    unavailable = 0
    for f in faces:
        got, want = _profile(recession_cone(arr, f))
        assert got == want
        unavailable += got is None
    # braid5 chambers have essential dimension 4; everything else is exact
    assert unavailable == (120 if name == "braid5" else 0)
