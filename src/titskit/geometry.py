"""Real affine hyperplane arrangements and their face decompositions.

A hyperplane is stored in a canonical form (integer coprime normal, first
nonzero entry positive), so equality of hyperplanes is structural equality.
Faces are the relatively open cells of the induced decomposition of R^n,
identified with their sign vectors over the hyperplane list.  Enumeration
uses no LP: hyperplane j is lifted to (a_j, -b_j) in Q^(n+1), x0 = 0 is
added as index m, and the faces are the covectors with x0 = + in the
closure of the cocircuits under the Tits product, composed as (pos, neg)
bitmasks.  A face's witness is the sum of the cocircuit vectors
conformally below it, divided by its x0 entry; the face is essentially
bounded when none of those cocircuits lies at infinity (x0 = 0).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .linalg import common_denominator, dot, matrix_rank, nullspace


class ZeroNormal(ValueError):
    """The zero vector does not define a hyperplane."""


class DuplicateHyperplane(ValueError):
    """Two input hyperplanes canonicalize to the same hyperplane."""


class NotAFace(ValueError):
    """A sign vector that no point of the ambient space realizes."""


class WitnessMismatch(RuntimeError):
    """A computed face witness whose sign vector is not the face's."""


class ArrangementMismatch(ValueError):
    """Objects built on different arrangements were combined."""


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {x : normal . x = offset} in canonical form."""

    normal: tuple
    offset: Fraction

    def value(self, point):
        return dot(self.normal, point) - self.offset

    def side(self, point):
        v = self.value(point)
        return 0 if v == 0 else (1 if v > 0 else -1)


def canonicalize(normal, offset):
    """Scale (normal, offset) to coprime integer normal, first nonzero > 0."""
    fs = [Fraction(c) for c in normal]
    if all(f == 0 for f in fs):
        raise ZeroNormal("hyperplane normal is the zero vector")
    den = common_denominator(fs)
    ints = [int(f * den) for f in fs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    lead = next(v for v in ints if v != 0)
    sign = 1 if lead > 0 else -1
    scale = Fraction(sign * den, g)
    return Hyperplane(
        normal=tuple(sign * v // g for v in ints),
        offset=Fraction(offset) * scale,
    )


@dataclass(frozen=True, eq=False)
class Arrangement:
    """A finite list of distinct hyperplanes in R^dim."""

    dim: int
    hyperplanes: tuple
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be positive")
        seen = {}
        for i, h in enumerate(self.hyperplanes):
            if len(h.normal) != self.dim:
                raise ValueError(f"hyperplane {i} lives in dimension {len(h.normal)}")
            key = (h.normal, h.offset)
            if key in seen:
                raise DuplicateHyperplane(
                    f"hyperplanes {seen[key]} and {i} coincide after canonicalization"
                )
            seen[key] = i

    @property
    def m(self):
        return len(self.hyperplanes)

    def value(self, i, point):
        return self.hyperplanes[i].value(point)

    def sign_vector(self, point):
        return tuple(h.side(point) for h in self.hyperplanes)

    def fingerprint(self):
        """Stable short hash of the canonical hyperplane data."""
        blob = json.dumps(arrangement_to_json(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def make_arrangement(dim, rows, kind="custom", params=None):
    """Build an Arrangement from raw (normal, offset) pairs."""
    hps = tuple(canonicalize(a, b) for a, b in rows)
    return Arrangement(dim=dim, hyperplanes=hps, kind=kind, params=dict(params or {}))


def arrangement_to_json(arr):
    return {
        "dim": arr.dim,
        "hyperplanes": [
            {
                "normal": [str(c) for c in h.normal],
                "offset": str(h.offset),
            }
            for h in arr.hyperplanes
        ],
    }


def arrangement_from_json(data, kind="file", params=None):
    """Inverse of arrangement_to_json.  Malformed data raises ValueError
    naming the field at fault."""
    if not isinstance(data, dict):
        raise ValueError("expected an object with 'dim' and 'hyperplanes'")
    try:
        dim = int(data["dim"])
    except (KeyError, OverflowError, TypeError, ValueError):
        raise ValueError("'dim' must be an integer") from None
    try:
        rows = [
            (
                [Fraction(str(c)) for c in entry["normal"]],
                Fraction(str(entry.get("offset", 0))),
            )
            for entry in data["hyperplanes"]
        ]
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError):
        raise ValueError(
            "'hyperplanes' must be a list of objects with a 'normal' list of "
            "numbers and an optional numeric 'offset'"
        ) from None
    return make_arrangement(dim, rows, kind=kind, params=params)


def load_arrangement(path):
    with open(path) as fh:
        return arrangement_from_json(json.load(fh), kind="file", params={"path": str(path)})


def signs_to_str(signs):
    return "".join("+" if s > 0 else ("-" if s < 0 else "0") for s in signs)


def str_to_signs(text):
    table = {"+": 1, "0": 0, "-": -1}
    try:
        return tuple(table[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"bad sign character in {text!r}") from exc


@dataclass(frozen=True)
class Face:
    """A relatively open cell: sign vector, witness, and affine-hull data."""

    signs: tuple
    witness: tuple
    dim: int
    essentially_bounded: bool
    hull_basis: tuple

    def is_chamber(self):
        return all(s != 0 for s in self.signs)


@dataclass(frozen=True)
class HomogeneousCone:
    """Polyhedral cone {x : eq . x = 0, ineq . x >= 0} with integer normals."""

    dim: int
    equalities: tuple
    inequalities: tuple


class FaceSet:
    """All faces of an arrangement, keyed by sign vector."""

    def __init__(self, arr, faces):
        self.arr = arr
        self._faces = {f.signs: f for f in faces}
        self._order = sorted(self._faces, key=lambda s: (self._faces[s].dim, s))

    def __len__(self):
        return len(self._faces)

    def __iter__(self):
        return (self._faces[s] for s in self._order)

    def __contains__(self, signs):
        return tuple(signs) in self._faces

    def face(self, signs):
        try:
            return self._faces[tuple(signs)]
        except KeyError:
            raise NotAFace(f"{signs_to_str(signs)} is not a face") from None

    def chambers(self):
        return [f for f in self if f.is_chamber()]

    def sign_vectors(self):
        return list(self._order)

    @property
    def min_dim(self):
        return min(f.dim for f in self)

    def counts_by_dim(self):
        out = {}
        for f in self:
            out[f.dim] = out.get(f.dim, 0) + 1
        return out


def _idot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lift(arr):
    """Homogenized integer rows: (a_j, -b_j) scaled by the denominator of
    b_j for each hyperplane a_j . x = b_j, then the row of x0 at index m."""
    rows = [
        tuple(c * h.offset.denominator for c in h.normal) + (-h.offset.numerator,)
        for h in arr.hyperplanes
    ]
    rows.append((0,) * arr.dim + (1,))
    return rows


def _sign_masks(rows, v):
    pos = neg = 0
    for j, row in enumerate(rows):
        s = _idot(row, v)
        if s > 0:
            pos |= 1 << j
        elif s < 0:
            neg |= 1 << j
    return pos, neg


def _cut(basis, row):
    """Primitive integer basis of the part of span(basis) orthogonal to row
    (row is not orthogonal to all of it)."""
    rates = [_idot(row, b) for b in basis]
    p = next(i for i, r in enumerate(rates) if r)
    out = []
    for i, (b, r) in enumerate(zip(basis, rates)):
        if i != p:
            v = [rates[p] * x - r * y for x, y in zip(b, basis[p])]
            g = gcd(*v)
            out.append(tuple(x // g for x in v))
    return out


def _cocircuits(rows):
    """Both orientations of every cocircuit of the row configuration, as
    (pos mask, neg mask, primitive integer vector).

    There is one cocircuit pair per flat of rank r - 1.  Flats are closed
    rank by rank: each flat is a closure mask with a basis of the subspace
    orthogonal to its rows, and each cover is found once.  A vector of a
    rank-(r - 1) flat's subspace outside the lineality space vanishes
    exactly on that flat's rows.
    """
    width = len(rows[0])
    full = (1 << len(rows)) - 1
    level = {0: [tuple(int(i == j) for j in range(width)) for i in range(width)]}
    for _ in range(matrix_rank(rows) - 1):
        covers = {}
        for mask, basis in level.items():
            rest = full & ~mask
            while rest:
                sub = _cut(basis, rows[next(_bits(rest))])
                closed = mask
                for j in _bits(rest):
                    if not any(_idot(rows[j], b) for b in sub):
                        closed |= 1 << j
                rest &= ~closed
                covers.setdefault(closed, sub)
        level = covers
    out = []
    for basis in level.values():
        y = next(b for b in basis if any(_idot(row, b) for row in rows))
        for v in (y, tuple(-c for c in y)):
            out.append(_sign_masks(rows, v) + (v,))
    return out


def _covectors(cocircuits, x0):
    """Closure of the zero covector under composition with cocircuits,
    dropping every covector with x0 = -.  Each covector is a composition of
    cocircuits conformal to it, so this still reaches every covector with
    x0 in {0, +}."""
    x0_neg = 1 << x0
    seen = {(0, 0)}
    work = [(0, 0)]
    while work:
        p, q = work.pop()
        zero = ~(p | q)
        for cp, cq, _ in cocircuits:
            x = (p | (cp & zero), q | (cq & zero))
            if not x[1] & x0_neg and x not in seen:
                seen.add(x)
                work.append(x)
    return seen


def _line(row):
    """The primitive integer row spanning the same line, first nonzero
    entry positive."""
    g = gcd(*row)
    lead = next(c for c in row if c)
    return tuple((c if lead > 0 else -c) // g for c in row)


@lru_cache(maxsize=256)
def _line_cocircuits(lines):
    """Cocircuit vectors, in both orientations, of the configuration of a
    sorted tuple of distinct lines."""
    return tuple(v for _, _, v in _cocircuits(list(lines)))


def _cone_covectors(cone):
    """(rays, covectors) of a homogeneous cone, as masks over its rows,
    equalities first and then inequalities.

    The rays are the cocircuits that are 0 on every equality and nowhere -:
    the cone's rays modulo its lineality space, as (pos, neg, vector).
    Their closure under composition is one covector per face, the sign
    vector of its relative interior.  The cocircuit vectors depend only on
    the lines the rows span, so all recession cones of one arrangement
    share one cocircuit search.  A zero row is 0 on every point, so it is
    active on every face; it stays out of that search, whose cuts need a
    row that is not orthogonal to the basis.
    """
    rows = list(cone.equalities) + list(cone.inequalities)
    lines = sorted({_line(row) for row in rows if any(row)})
    if not lines:
        return [], {(0, 0)}
    eq_mask = (1 << len(cone.equalities)) - 1
    rays = []
    for v in _line_cocircuits(tuple(lines)):
        p, q = _sign_masks(rows, v)
        if not (q or p & eq_mask):
            rays.append((p, q, v))
    return rays, _covectors(rays, len(rows))


def _below(cocircuits, p, q):
    return [c for c in cocircuits if not (c[0] & ~p or c[1] & ~q)]


def _bounded(below, x0):
    """No cocircuit at infinity (x0 = 0) lies conformally below the face."""
    return all(cp >> x0 & 1 for cp, _, _ in below)


def enumerate_faces(arr):
    """All faces of the arrangement, as the covectors with x0 = + of the
    homogenized arrangement."""
    m, n = arr.m, arr.dim
    rows = _lift(arr)
    cocircuits = _cocircuits(rows)
    hulls = {}
    faces = []
    for p, q in _covectors(cocircuits, m):
        if not p >> m & 1:
            continue
        below = _below(cocircuits, p, q)
        y = [sum(col) for col in zip(*(v for _, _, v in below))]
        signs = tuple((p >> j & 1) - (q >> j & 1) for j in range(m))
        if _sign_masks(rows, y) != (p, q):
            raise WitnessMismatch(
                f"witness of {signs_to_str(signs)} lies in another face"
            )
        zero = ~(p | q) & ((1 << m) - 1)
        if zero not in hulls:
            normals = [arr.hyperplanes[j].normal for j in _bits(zero)]
            hulls[zero] = tuple(nullspace(normals, n))
        faces.append(
            Face(
                signs=signs,
                witness=tuple(Fraction(c, y[n]) for c in y[:n]),
                dim=len(hulls[zero]),
                essentially_bounded=_bounded(below, m),
                hull_basis=hulls[zero],
            )
        )
    return FaceSet(arr, faces)


def recession_cone(arr, face):
    """Directions along which the face recedes, as a homogeneous cone."""
    signs = face.signs if isinstance(face, Face) else tuple(face)
    eqs = []
    ineqs = []
    for j, s in enumerate(signs):
        normal = arr.hyperplanes[j].normal
        if s == 0:
            eqs.append(normal)
        else:
            ineqs.append(tuple(s * c for c in normal))
    return HomogeneousCone(
        dim=arr.dim, equalities=tuple(eqs), inequalities=tuple(ineqs)
    )


def lineality_space(arr):
    """Basis of the common lineality space of all hyperplanes."""
    return nullspace([h.normal for h in arr.hyperplanes], arr.dim)
