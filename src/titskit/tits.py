"""The Tits product on faces and its linearization.

Faces compose by sign-vector composition: (FG)_i is F_i unless that sign is
zero, in which case G_i.  Geometrically FG is the face entered by moving a
short way from F toward G.  Linearizing over the face set gives an
associative algebra; elements here are sparse coefficient dictionaries over
sign vectors, with rational, polynomial, or float scalars.

The product is star-factored.  FG keeps F's signs and takes G's only on
F's zero set Z, so w.v = sum_F c_F F.pi_Z(v), where pi_Z(v) sums v's
coefficients by the restriction of G to Z: the push of v to the
localization at Z.  There is one push per distinct zero set of w, at most
one per flat, and each is taken from the smallest push already made for a
superset of Z (restricting twice is restricting once), or from v.  Inside
the product a sign vector is its key in the face set's own index
(FaceSet.packed): one int, bit j for + and bit m + j for -, so
restriction to Z is a mask and composition is `|`.  One lookup there
checks each key of w and v, and the same index maps each product back to
its sign vector.  The work is the size of the pushes plus
sum_F |pi_Z(v)|, not |w| |v|; float products can differ from the
pairwise sum in the last bits, since the order of addition changes.

The product, the pushforward and the support sums add rational
coefficients as integer numerators, each operand over the lcm of its own
denominators, and divide each result back to one Fraction (a product over
the product of the two lcms); Poly and float ones take the same loops.
Only a product with a Poly or float operand reads the operands' kinds.

The flat algebra, H_X H_Y = H_{X join Y}, is the support image of the Tits
algebra and is star-factored alike: H_x pushes v to sum_y c_y H_{x join y},
each join read from x's join row, an array built when x is first pushed.
Each push starts from one made at a flat below x (x' <= x gives x join y =
x join (x' join y)) or from v.  Each push keeps its floor, the flats below
all of its keys: at an x in the floor of its starting push, x join z = z
for every key z, so the push at x is that push itself, shared and not built
again.  A push that cancels does so at every flat above x too, and those
are skipped.  For Q_X Q_Y nearly every push cancels, as H_Z Q_Y = 0 unless
Z <= Y, and the flats Z <= Y all share the one push Q_Y.

Characters are indexed by flats: chi_X(w) adds w's support sums, taken in
one pass over w, over the flats below X, as integer numerators over w's
one denominator, and divides once per flat; support_sum reads the same
pass.
An element is characteristic for a parameter t when chi_X(w) = t^rank(X)
for every flat X; a matched entry is shared, from one tuple per lattice
and t, and a report whose every entry matches shares that tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import and_, neg
from types import MappingProxyType

from .geometry import NotAFace, _same_arrangement, signs_to_str
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
        self.coeffs = {tuple(signs): c for signs, c in coeffs.items() if c}

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
        _same_arrangement(self.arr, other)
        out = dict(self.coeffs)
        for signs, c in other.coeffs.items():
            out[signs] = out.get(signs, 0) + c
        return TitsElement(self.arr, out)

    def __neg__(self):
        return self.map_coeffs(neg)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return self.map_coeffs(lambda c: factor * c)

    def evaluate(self, value):
        """Substitute a number for the indeterminate in poly coefficients."""
        return self.map_coeffs(lambda c: c(value) if isinstance(c, Poly) else c)

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
    return tuple([f if f != 0 else g for f, g in zip(f_signs, g_signs)])


def tits_product(faces, f_signs, g_signs):
    """Product of two faces, as a sign vector of the same arrangement."""
    f = faces.face(f_signs)
    g = faces.face(g_signs)
    out = compose_signs(f.signs, g.signs)
    if out not in faces:
        raise NotClosed(f"{signs_to_str(out)} is missing from the face set")
    return out


def _numerators(coeffs):
    """Rational coefficients as integer numerators over their lcm den:
    (den, numerators).  With a Poly or float coefficient the dict comes
    back as it is, and den is None."""
    if not all(isinstance(c, (int, Fraction)) for c in coeffs.values()):
        return None, coeffs
    den = lcm(*[c.denominator for c in coeffs.values()])
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in coeffs.items()}


def _divided(sums, den):
    """Sums of numerators back to one Fraction each; other sums as they are."""
    if den is None:
        return sums
    return {k: Fraction(n, den) for k, n in sums.items()}


def multiply(faces, w, v):
    """Bilinear product of two Tits-algebra elements, star-factored: one
    push of v per zero set of w's faces (see the module docstring).  A key
    of w or v that is not in the face set raises NotAFace, and a product
    that is not, NotClosed."""
    _same_arrangement(faces.arr, w, v)
    dw, wc = _numerators(w.coeffs)
    dv, vc = _numerators(v.coeffs)
    if dw is None or dv is None:  # two rational elements cannot mismatch
        kw, kv = w.kind, v.kind  # raises TypeError on an unsupported scalar
        if w.coeffs and v.coeffs and kw != kv:
            raise ScalarMismatch(f"cannot multiply {kw} element by {kv} element")
    m = faces.arr.m
    full = (1 << m) - 1
    packed = faces.packed()
    try:  # one lookup per key: a sign vector missing from it is no face
        wk = [(packed[signs], c) for signs, c in wc.items()]
        source = [(packed[signs], c) for signs, c in vc.items()]
    except KeyError as miss:
        raise NotAFace(f"{signs_to_str(miss.args[0])} is not a face") from None
    terms = []
    for f, c in wk:
        z = full & ~(f | f >> m)  # F's zero set, masked on both halves
        terms.append((f, z | z << m, c))
    pushes = {}
    # larger zero sets first, so each push can start from a coarser one
    for z in sorted(dict.fromkeys(z for _, z, _ in terms), key=int.bit_count,
                    reverse=True):
        coarser = (pushes[y] for y in pushes if not z & ~y)
        push = {}
        for g, c in min(coarser, key=len, default=source):
            push[g & z] = push.get(g & z, 0) + c
        pushes[z] = [(g, c) for g, c in push.items() if c]
    out = {}
    for f, z, cf in terms:
        for g, c in pushes[z]:
            out[f | g] = out.get(f | g, 0) + cf * c
    coeffs = {}
    for k, c in out.items():
        if not c:
            continue
        if k not in packed:
            signs = tuple([(k >> j & 1) - (k >> (m + j) & 1) for j in range(m)])
            raise NotClosed(f"{signs_to_str(signs)} is missing from the face set")
        coeffs[packed[k]] = c
    # a product of two numerators sits over the product of their dens
    return TitsElement(faces.arr, _divided(coeffs, dw and dv and dw * dv))


def _support_sums(lattice, w):
    """Total coefficient of the faces supported at each flat, in one pass:
    (sums, den), rational sums as integer numerators over den (`_divided`
    gives the Fractions); Poly and float sums as they are, with den None."""
    _same_arrangement(lattice.arr, w)
    den, coeffs = _numerators(w.coeffs)
    sums = {}
    for signs, c in coeffs.items():
        x = lattice.support(signs)
        sums[x] = sums.get(x, 0) + c
    return sums, den


def _character(lattice, sums, den, x):
    """chi_X from the support numerators: one Fraction per flat."""
    parts = [sums[y] for y in lattice.below(x) if y in sums]
    return Fraction(sum(parts), den) if den and parts else sum(parts, 0)


def character(lattice, w, x):
    """chi_X(w): total coefficient of faces supported at or below flat x."""
    return _character(lattice, *_support_sums(lattice, w), x)


def support_sum(lattice, w, x):
    """Total coefficient of faces supported exactly at flat x."""
    return _divided(*_support_sums(lattice, w)).get(lattice._checked(x), 0)


def chamber_sum(lattice, w):
    return support_sum(lattice, w, lattice.top)


def _deviation(a, b):
    """Largest absolute coefficient of a - b, as a float."""
    return float(max(map(abs, (a - b).coeffs.values()), default=0.0))


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
    key = (type(t), t)  # as 1 == Fraction(1) == 1.0
    if key not in lattice._matched:
        powers = [t ** k for k in range(lattice.rank_top() + 1)]
        lattice._matched[key] = tuple([(x, powers[f.rank], powers[f.rank], 0)
                                       for x, f in enumerate(lattice.flats)])
    matched = lattice._matched[key]
    sums, den = _support_sums(lattice, w)
    entries = []
    for x, match in enumerate(matched):
        lhs = _character(lattice, sums, den, x)
        dev = 0 if lhs == match[2] else _magnitude(lhs - match[2])
        entries.append((x, lhs, match[2], dev) if dev else match)
    entries = tuple(entries)
    if entries == matched:  # every entry matched: share the lattice's tuple
        entries = matched
    ok = all(e[3] == 0 if tol is None else e[3] <= tol for e in entries)
    return CharacteristicReport(parameter=t, ok=ok, entries=entries)


_SIGN = (Fraction(1), Fraction(-1))  # (-1)^k by the parity of k


def unit_element(faces):
    """Alternating sum of essentially bounded faces; characteristic for 1."""
    d = faces.min_dim
    return TitsElement(faces.arr, {
        f.signs: _SIGN[(f.dim - d) & 1] for f in faces if f.essentially_bounded
    })


def takeuchi_element(faces):
    """Alternating sum over all faces; characteristic for -1."""
    d = faces.min_dim
    return TitsElement(
        faces.arr, {f.signs: _SIGN[(f.dim - d) & 1] for f in faces}
    )


def q_basis(lattice):
    """Solomon's complete orthogonal idempotents of the flat algebra.

    Returns, for each flat X, the coefficient vector of Q_X in the H basis:
    Q_X = sum over flats Y >= X of mu(X, Y) H_Y; one read-only mapping per
    lattice.
    """
    if lattice._q is None:
        lattice._q = MappingProxyType(
            {x: lattice.mobius_row(x) for x in range(len(lattice))}
        )
    return lattice._q


def flat_multiply(lattice, u, v):
    """H_X H_Y = H_{X join Y}, bilinearly: one push of v per flat of u (see
    the module docstring).  A nonzero coefficient at a missing flat raises
    IndexOutOfRange; a zero one is skipped."""
    n = len(lattice)
    xs = sorted(u)
    source = v.items()  # with every key in range, a zero adds nothing
    if (xs and not (0 <= xs[0] and xs[-1] < n)
            or v and not (0 <= min(v) and max(v) < n)):
        for x, c in [*u.items(), *source]:
            if c != 0:
                lattice._checked(x)
        source = [(y, c) for y, c in source if c != 0]
    above, below = lattice._above, lattice._below
    pushes = []  # (above-set of x, push of v at x, its floor), x increasing
    dead = 0  # the flats above a flat whose push cancelled
    out = {}
    for x in xs:
        cx = u[x]
        if cx == 0 or dead >> x & 1:
            continue
        for base in reversed(pushes):  # the latest push at a flat <= x
            if base[0] >> x & 1:
                break
        else:
            base = None
        if base is not None and base[2] >> x & 1:  # x join z = z: the same push
            push, floor = base[1], base[2]
        else:
            row = lattice._join_row(x)
            push = {}
            for y, c in source if base is None else base[1]:
                z = row[y]
                push[z] = push.get(z, 0) + c
            push = [(z, c) for z, c in push.items() if c != 0]
            if not push:
                dead |= above[x]
                continue
            floor = reduce(and_, [below[z] for z, _ in push])
        pushes.append((above[x], push, floor))
        for z, c in push:
            out[z] = out.get(z, 0) + cx * c
    return {z: c for z, c in out.items() if c != 0}


def pushforward(fmap, w):
    """Image of an element under a subarrangement restriction map."""
    _same_arrangement(fmap.source, w)
    den, coeffs = _numerators(w.coeffs)
    out = {}
    for signs, c in coeffs.items():
        key = fmap(signs)
        out[key] = out.get(key, 0) + c
    return TitsElement(fmap.target, _divided(out, den))


def element_to_json(w):
    return [
        {"sign_vector": signs_to_str(signs), "coeff": format_scalar(c)}
        for signs, c in w.items()
    ]
