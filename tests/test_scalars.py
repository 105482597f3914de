"""Poly's hash agrees with its equality: a constant polynomial equals its
constant and the zero polynomial equals 0, so they hash alike; every other
polynomial keeps its hash.  Evaluation and addition agree with the
coefficient-type arithmetic of `oracles.horner` and `oracles.poly_add` in
value and in type, signed zeros included."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from titskit.scalars import Poly

from oracles import horner, poly_add

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


def _exact(x):
    """Type and repr of a scalar, or of each coefficient of a Poly: equal
    only for equal values of one type, and 0.0 differs from -0.0."""
    if isinstance(x, Poly):
        return ("Poly", tuple(_exact(c) for c in x.coeffs))
    return type(x), repr(x)


_longer = st.lists(_coefficient, max_size=5).map(Poly)
_argument = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0]),
    _polys,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(p=_longer, x=_argument)
def test_evaluation_matches_horner_oracle(p, x):
    assert _exact(p(x)) == _exact(horner(p, x))


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(p=_longer, q=_longer, scalar=_coefficient)
def test_addition_matches_oracle(p, q, scalar):
    assert _exact(p + q) == _exact(poly_add(p, q))
    assert _exact(q + p) == _exact(poly_add(q, p))
    assert _exact(p + scalar) == _exact(poly_add(p, Poly((scalar,))))
    assert _exact(scalar + p) == _exact(poly_add(Poly((scalar,)), p))


def test_empty_polynomial_evaluates_to_int_zero():
    for x in (2, Fraction(1, 2), 0.5, Poly((1, 1))):
        assert _exact(Poly()(x)) == (int, "0")


def test_negative_zero_in_the_longer_tail_reads_zero():
    # c + 0 turns a float -0.0 into 0.0, whichever operand is longer
    longer, shorter = Poly((1, -0.0, 2)), Poly((3,))
    for total in (longer + shorter, shorter + longer):
        assert _exact(total) == _exact(Poly((4, 0.0, 2)))
    # two -0.0 summed stay -0.0, as -0.0 + -0.0 is
    assert repr((Poly((-0.0, 1)) + Poly((-0.0, 2))).coeffs[0]) == "-0.0"
