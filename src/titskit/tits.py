"""The Tits product on faces and its linearization.

Faces compose by sign-vector composition: (FG)_i is F_i unless that sign is
zero, in which case G_i.  Geometrically FG is the face entered by moving a
short way from F toward G.  Linearizing over the face set gives an
associative algebra; elements here are sparse coefficient dictionaries over
sign vectors, with rational, polynomial, or float scalars.  Characters are
indexed by flats: chi_X(w) adds w's support sums, taken in one pass over w,
over the flats below X.  An element is characteristic for a parameter t when
chi_X(w) = t^rank(X) for every flat X.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import ArrangementMismatch, signs_to_str
from .scalars import Poly, format_scalar, scalar_kind


class ScalarMismatch(TypeError):
    """Two elements with different scalar variants were combined."""


class NotClosed(ValueError):
    """A Tits product whose sign vector is missing from the face set."""


class TitsElement:
    """Sparse element of the Tits algebra of one arrangement."""

    __slots__ = ("arr", "coeffs")

    def __init__(self, arr, coeffs):
        self.arr = arr
        clean = {}
        for signs, c in coeffs.items():
            signs = tuple(signs)
            if isinstance(c, Poly):
                if c.is_zero():
                    continue
            elif c == 0:
                continue
            clean[signs] = c
        self.coeffs = clean

    @property
    def kind(self):
        kinds = {scalar_kind(c) for c in self.coeffs.values()}
        if "poly" in kinds:
            return "poly"
        if "float" in kinds:
            return "float"
        return "rational"

    def items(self):
        return sorted(self.coeffs.items())

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TitsElement):
            return NotImplemented
        return self.arr is other.arr and self.coeffs == other.coeffs

    def __add__(self, other):
        if self.arr is not other.arr:
            raise ArrangementMismatch("adding elements of two arrangements")
        out = dict(self.coeffs)
        for signs, c in other.coeffs.items():
            out[signs] = out.get(signs, 0) + c
        return TitsElement(self.arr, out)

    def __neg__(self):
        return TitsElement(self.arr, {s: -c for s, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return TitsElement(
            self.arr, {s: factor * c for s, c in self.coeffs.items()}
        )

    def evaluate(self, value):
        """Substitute a number for the indeterminate in poly coefficients."""
        return TitsElement(
            self.arr,
            {
                s: (c(value) if isinstance(c, Poly) else c)
                for s, c in self.coeffs.items()
            },
        )

    def map_coeffs(self, fn):
        return TitsElement(self.arr, {s: fn(c) for s, c in self.coeffs.items()})

    def __repr__(self):
        inner = ", ".join(
            f"{signs_to_str(s)}: {format_scalar(c)}" for s, c in self.items()
        )
        return f"TitsElement({{{inner}}})"


def basis_element(arr, signs):
    return TitsElement(arr, {tuple(signs): Fraction(1)})


def compose_signs(f_signs, g_signs):
    return tuple(f if f != 0 else g for f, g in zip(f_signs, g_signs))


def tits_product(faces, f_signs, g_signs):
    """Product of two faces, as a sign vector of the same arrangement."""
    f = faces.face(f_signs)
    g = faces.face(g_signs)
    out = compose_signs(f.signs, g.signs)
    if out not in faces:
        raise NotClosed(f"{signs_to_str(out)} is missing from the face set")
    return out


def multiply(faces, w, v):
    """Bilinear product of two Tits-algebra elements."""
    if w.arr is not faces.arr or v.arr is not faces.arr:
        raise ArrangementMismatch("multiplying another arrangement's element")
    kw, kv = w.kind, v.kind
    if w.coeffs and v.coeffs and kw != kv:
        raise ScalarMismatch(f"cannot multiply {kw} element by {kv} element")
    out = {}
    for fs, cf in w.coeffs.items():
        for gs, cg in v.coeffs.items():
            key = compose_signs(fs, gs)
            out[key] = out.get(key, 0) + cf * cg
    result = TitsElement(faces.arr, out)
    for s in result.coeffs:
        if s not in faces:
            raise NotClosed(f"{signs_to_str(s)} is missing from the face set")
    return result


def _support_sums(lattice, w):
    """Total coefficient of the faces supported at each flat, in one pass."""
    sums = {}
    for signs, c in w.coeffs.items():
        x = lattice.face_support[signs]
        sums[x] = sums.get(x, 0) + c
    return sums


def _character(lattice, sums, x):
    return sum((sums[y] for y in lattice.below(x) if y in sums), 0)


def character(lattice, w, x):
    """chi_X(w): total coefficient of faces supported at or below flat x."""
    return _character(lattice, _support_sums(lattice, w), x)


def support_sum(lattice, w, x):
    """Total coefficient of faces supported exactly at flat x."""
    support = lattice.face_support
    return sum((c for s, c in w.coeffs.items() if support[s] == x), 0)


def chamber_sum(lattice, w):
    return support_sum(lattice, w, lattice.top)


def _magnitude(residual):
    if isinstance(residual, Poly):
        return max((abs(c) for c in residual.coeffs), default=0)
    return abs(residual)


@dataclass(frozen=True)
class CharacteristicReport:
    parameter: object
    ok: bool
    entries: tuple  # (flat_index, chi_value, expected, deviation)

    def violations(self):
        return [e for e in self.entries if e[3] != 0]


def is_characteristic(lattice, w, t, tol=None):
    """Check chi_X(w) = t^rank(X) for every flat X.

    With tol=None the comparison is exact; otherwise each deviation (max
    absolute coefficient of the difference) must be <= tol.
    """
    sums = _support_sums(lattice, w)
    entries = []
    for x in range(len(lattice)):
        lhs = _character(lattice, sums, x)
        rhs = t ** lattice.flat(x).rank
        entries.append((x, lhs, rhs, _magnitude(lhs - rhs)))
    ok = all(e[3] == 0 if tol is None else e[3] <= tol for e in entries)
    return CharacteristicReport(parameter=t, ok=ok, entries=tuple(entries))


def unit_element(faces):
    """Alternating sum of essentially bounded faces; characteristic for 1."""
    d = faces.min_dim
    return TitsElement(
        faces.arr,
        {
            f.signs: Fraction((-1) ** (f.dim - d))
            for f in faces
            if f.essentially_bounded
        },
    )


def takeuchi_element(faces):
    """Alternating sum over all faces; characteristic for -1."""
    d = faces.min_dim
    return TitsElement(
        faces.arr, {f.signs: Fraction((-1) ** (f.dim - d)) for f in faces}
    )


def q_basis(lattice):
    """Solomon's complete orthogonal idempotents of the flat algebra.

    Returns, for each flat X, the coefficient vector of Q_X in the H basis:
    Q_X = sum over flats Y >= X of mu(X, Y) H_Y.
    """
    return {x: {y: lattice.mobius(x, y) for y in lattice.above(x)}
            for x in range(len(lattice))}


def flat_multiply(lattice, u, v):
    """Product in the flat algebra: H_X H_Y = H_{X join Y}, extended bilinearly."""
    out = {}
    for x, cx in u.items():
        if cx == 0:
            continue
        for y, cy in v.items():
            if cy == 0:
                continue
            k = lattice.join(x, y)
            out[k] = out.get(k, 0) + cx * cy
    return {k: c for k, c in out.items() if c != 0}


def pushforward(fmap, w):
    """Image of an element under a subarrangement restriction map."""
    if w.arr is not fmap.source:
        raise ArrangementMismatch("the element is not on the map's source")
    out = {}
    for signs, c in w.coeffs.items():
        key = fmap(signs)
        out[key] = out.get(key, 0) + c
    return TitsElement(fmap.target, out)


def element_to_json(w):
    return [
        {"sign_vector": signs_to_str(signs), "coeff": format_scalar(c)}
        for signs, c in w.items()
    ]
