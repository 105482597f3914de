"""Poly's hash agrees with its equality: a constant polynomial equals its
constant and the zero polynomial equals 0, so they hash alike; every other
polynomial keeps its hash."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from titskit.scalars import Poly

# a small pool, so that equal polynomials and scalars are drawn often
_coefficient = st.one_of(
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2)),
    st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0, 2.0, 1.25]),
)
_polys = st.lists(_coefficient, max_size=3).map(Poly)


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(p=_polys, q=_polys, scalar=_coefficient)
def test_equal_objects_hash_alike(p, q, scalar):
    if p == q:
        assert hash(p) == hash(q)
    if p == scalar:
        assert hash(p) == hash(scalar)
        assert len({p, scalar}) == 1
    if p.degree >= 1:  # the hash of every nonconstant polynomial is kept
        assert hash(p) == hash(("Poly", p.coeffs))


def test_constants_collapse_with_their_scalars():
    assert len({Poly((1,)), 1}) == 1
    assert len({Poly(()), 0}) == 1
    assert len({Poly((Fraction(1, 2),)), Fraction(1, 2), 0.5}) == 1
    assert len({Poly((0, 1)), Poly((0.0, 1.0)), Poly((1,))}) == 2

