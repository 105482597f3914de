"""Exact scalars: rationals and univariate polynomials.

Coefficient vectors are stored in ascending order and trimmed, so equality is
structural.  The same Poly class carries Fraction coefficients for exact work
and float coefficients for the volume-weighted elements; arithmetic is
whatever the coefficient type provides.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


class Poly:
    """Univariate polynomial; immutable tuple of coefficients, lowest first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        tail = [c + 0 for c in a[len(b):]]
        return Poly([x + y for x, y in zip(a, b)] + tail)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner's rule; x may itself be a Poly (composition)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divided_by_t(self):
        """Exact quotient by the indeterminate; constant term must vanish."""
        if self.is_zero():
            return self
        if self.coeffs[0] != 0:
            raise ValueError("polynomial not divisible by t")
        return Poly(self.coeffs[1:])

    def map_coeffs(self, fn):
        return Poly([fn(c) for c in self.coeffs])

    # -- comparison / display -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, float)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes as its one coefficient
        # or, for the zero polynomial, as 0: the sum of at most one entry
        return hash(("Poly", self.coeffs) if len(self.coeffs) > 1 else sum(self.coeffs))

    def __repr__(self):
        return f"Poly({poly_str(self)!r})"

    def __str__(self):
        return poly_str(self)


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction, float)):
        return Poly((x,))
    return NotImplemented


#: the indeterminate
T = Poly((0, 1))


def binom_poly(k):
    """binom(t, k) as a polynomial: t(t-1)...(t-k+1) / k!."""
    if k < 0:
        raise ValueError("negative binomial index")
    p = Poly((Fraction(1),))
    for j in range(k):
        p = p * Poly((Fraction(-j), Fraction(1)))
    scale = Fraction(1, factorial(k))
    return p.map_coeffs(lambda c: c * scale)


def _coeff_str(c, with_var):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        s = f"{c.numerator}/{c.denominator}"
        return f"({s})" if with_var else s
    if isinstance(c, float):
        return f"{c:.6g}"
    return str(c)


def poly_str(p, var="t"):
    """Render in descending powers, e.g. 't^3 - 6t^2 + 11t - 6'."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if c == 0:
            continue
        neg = c < 0
        mag = -c if neg else c
        if k == 0:
            body = _coeff_str(mag, with_var=False)
        else:
            var_part = var if k == 1 else f"{var}^{k}"
            if mag == 1:
                body = var_part
            else:
                body = _coeff_str(mag, with_var=True) + var_part
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def scalar_kind(x):
    """Classify a coefficient: 'rational', 'poly', or 'float'."""
    if isinstance(x, Poly):
        return "poly"
    if isinstance(x, (int, Fraction)):
        return "rational"
    if isinstance(x, float):
        return "float"
    raise TypeError(f"unsupported scalar {type(x).__name__}")


def format_scalar(x):
    if isinstance(x, Poly):
        return poly_str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)
