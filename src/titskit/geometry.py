"""Real affine hyperplane arrangements and their face decompositions.

A hyperplane is stored in a canonical form (integer coprime normal, first
nonzero entry positive: linalg's integer normal form), so equality of
hyperplanes is structural equality.
Faces are the relatively open cells of the induced decomposition of R^n,
identified with their sign vectors over the hyperplane list.  Enumeration
uses no LP: hyperplane j is lifted to (a_j, -b_j) in Q^(n+1), x0 = 0 is
added as index m, and the faces are the covectors with x0 = +.  Each is
the conformal composition of the cocircuits below it, so the faces are
the closure of the cocircuits with x0 = + under conformal composition,
as (pos, neg) bitmasks, and no covector at infinity is built.  Per-row
bitmasks over the cocircuits give a face's conformal cocircuits as one
AND per row.  A face's witness is the sum of their vectors, divided by
its x0 entry.  It is checked by linearity: its dot products with the rows
are the sums of theirs, computed once per cocircuit.  The face is
essentially bounded when none of its cocircuits lies at infinity
(x0 = 0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .linalg import _idot, _integer_row, _line, _primitive, dot, matrix_rank, nullspace


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


def _same_arrangement(arr, *parts):
    """Raise ArrangementMismatch unless every part (a face set, lattice or
    element) is built on arr itself; an equal copy is another arrangement."""
    for part in parts:
        if part.arr is not arr:
            raise ArrangementMismatch("combining objects of two arrangements")


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
    """Scale (normal, offset) so that the normal is its line in linalg's
    integer normal form (linalg._line): coprime integers, first nonzero
    entry positive."""
    ints, den = _integer_row([Fraction(c) for c in normal])
    if not any(ints):
        raise ZeroNormal("hyperplane normal is the zero vector")
    line = _line(ints)
    k = next(i for i, c in enumerate(ints) if c)
    return Hyperplane(
        normal=line, offset=Fraction(offset) * Fraction(den * line[k], ints[k])
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

    def sign_vector(self, point):
        return tuple([h.side(point) for h in self.hyperplanes])

    def fingerprint(self):
        """Stable short hash of the canonical hyperplane data."""
        try:  # the interpreter's own SHA-256: hashlib maps OpenSSL, about
            from _sha256 import sha256  # 3.6 MiB resident, for one digest
        except ImportError:  # CPython 3.12 renamed the module _sha2
            from hashlib import sha256

        blob = json.dumps(arrangement_to_json(self), sort_keys=True)
        return sha256(blob.encode()).hexdigest()[:16]


def make_arrangement(dim, rows, kind="custom", params=None):
    """Build an Arrangement from raw (normal, offset) pairs."""
    hps = tuple([canonicalize(a, b) for a, b in rows])
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
        dim = data["dim"]
        # int() would truncate 2.7 and read true as 1
        if isinstance(dim, bool) or (
            isinstance(dim, float) and not dim.is_integer()
        ):
            raise ValueError
        dim = int(dim)
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
        return tuple([table[ch] for ch in text])
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
    """All faces of an arrangement, keyed by sign vector.  `packed()` is
    the one index of their packed keys, in both directions."""

    def __init__(self, arr, faces):
        self.arr = arr
        self._faces = {f.signs: f for f in faces}
        self._order = sorted(self._faces, key=lambda s: (self._faces[s].dim, s))
        self._packed = None

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

    def packed(self):
        """Each face's sign vector to its packed key, one int with bit j
        for + and bit m + j for -, and each key back to the sign vector;
        one dict, built on first use from the set's own sign vectors."""
        if self._packed is None:
            m = self.arr.m
            self._packed = {}
            for s in self._order:
                key = sum([1 << (j if x > 0 else m + j)
                           for j, x in enumerate(s) if x])
                self._packed[s] = key
                self._packed[key] = s
        return self._packed

    @property
    def min_dim(self):
        return min(f.dim for f in self)

    def counts_by_dim(self):
        out = {}
        for f in self:
            out[f.dim] = out.get(f.dim, 0) + 1
        return out


def _bits(mask):
    """Indices of the set bits of a mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lift(arr):
    """Homogenized integer rows: (a_j, -b_j) scaled by the denominator of
    b_j for each hyperplane a_j . x = b_j, then the row of x0 at index m."""
    rows = [tuple(_integer_row([*h.normal, -h.offset])[0]) for h in arr.hyperplanes]
    rows.append((0,) * arr.dim + (1,))
    return rows


def _signs_of(dots):
    """(pos, neg): the masks of the entries that are > 0 and < 0."""
    pos = neg = 0
    for j, s in enumerate(dots):
        if s > 0:
            pos |= 1 << j
        elif s < 0:
            neg |= 1 << j
    return pos, neg


def _sign_masks(rows, v):
    return _signs_of([_idot(row, v) for row in rows])


def _cut(basis, row):
    """Primitive integer basis of the part of span(basis) orthogonal to row
    (row is not orthogonal to all of it).  A basis vector already
    orthogonal to row is kept, negated when the pivot's rate is negative:
    its recombination with the pivot vector, divided by the gcd, is that
    vector, since the basis vectors are primitive."""
    rates = [_idot(row, b) for b in basis]
    p = next(i for i, r in enumerate(rates) if r)
    out = []
    for i, (b, r) in enumerate(zip(basis, rates)):
        if i != p and not r:
            out.append(b if rates[p] > 0 else tuple([-x for x in b]))
        elif i != p:
            v = [rates[p] * x - r * y for x, y in zip(b, basis[p])]
            out.append(_primitive(v))
    return out


def _cocircuits(rows):
    """Both orientations of every cocircuit of the row configuration, as
    (pos mask, neg mask, primitive integer vector, its dot products with
    the rows).

    There is one cocircuit pair per flat of rank r - 1.  Flats are closed
    rank by rank: each flat is a closure mask with a basis of the subspace
    orthogonal to its rows, and each cover is found once.  A vector of a
    rank-(r - 1) flat's subspace outside the lineality space vanishes
    exactly on that flat's rows.
    """
    width = len(rows[0])
    full = (1 << len(rows)) - 1
    level = {0: [tuple([int(i == j) for j in range(width)]) for i in range(width)]}
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
        dots = tuple([_idot(row, y) for row in rows])
        pos, neg = _signs_of(dots)
        out.append((pos, neg, y, dots))
        out.append((neg, pos, tuple([-c for c in y]), tuple([-d for d in dots])))
    return out


def _row_masks(cocircuits, nrows):
    """For each row j, (zero, nonneg, nonpos): the bitmasks over the
    cocircuits that are 0, >= 0 and <= 0 at j."""
    pos = [0] * nrows
    neg = [0] * nrows
    for i, c in enumerate(cocircuits):
        for j in _bits(c[0]):
            pos[j] |= 1 << i
        for j in _bits(c[1]):
            neg[j] |= 1 << i
    full = (1 << len(cocircuits)) - 1
    return [(full & ~(p | q), full & ~q, full & ~p) for p, q in zip(pos, neg)]


def _conformal(masks, full, p, q):
    """(conformal, inside): the bitmasks over the cocircuits (full is all
    of them) that have no sign opposite to the covector (p, q), and that
    are 0 wherever it is 0.  Those in both lie conformally below it."""
    conformal = inside = full
    for j, (zero, nonneg, nonpos) in enumerate(masks):
        if p >> j & 1:
            conformal &= nonneg
        elif q >> j & 1:
            conformal &= nonpos
        else:
            inside &= zero
    return conformal, inside


def _covectors(cocircuits, nrows, start):
    """The covectors conformally above a start covector, each mapped to
    the bitmask of the cocircuits conformally below it.

    A covector X is composed with a cocircuit C only when C has no sign
    opposite to X and adds to X's support; then X.C = (X.pos | C.pos,
    X.neg | C.neg).  Every covector is the conformal composition, in any
    order, of the cocircuits below it (Bjorner et al., Oriented
    Matroids), so these steps reach every covector above a start
    covector.  From the zero covector that is every covector.
    """
    masks = _row_masks(cocircuits, nrows)
    full = (1 << len(cocircuits)) - 1
    below = dict.fromkeys(start, 0)
    work = list(below)
    while work:
        x = work.pop()
        p, q = x
        conformal, inside = _conformal(masks, full, p, q)
        below[x] = conformal & inside
        for i in _bits(conformal & ~inside):
            y = (p | cocircuits[i][0], q | cocircuits[i][1])
            if y not in below:
                below[y] = 0
                work.append(y)
    return below


@lru_cache(maxsize=256)
def _line_cocircuits(lines):
    """Cocircuits, in both orientations, of the configuration of a sorted
    tuple of distinct lines, with masks over the lines, and the row masks
    of the lines (_row_masks)."""
    cocircuits = _cocircuits(list(lines))
    return tuple(cocircuits), _row_masks(cocircuits, len(lines))


def _cone_rays(cone):
    """(lines, rays) of a homogeneous cone, over its rows, equalities first
    and then inequalities.  lines[j] is the line of row j (linalg._line),
    None for a zero row; the rays modulo the lineality space are
    (pos, neg, vector) with masks over the rows: the cocircuits that are 0
    on every equality and nowhere -.  Their closure under conformal
    composition from the zero covector (_covectors) is one covector per
    face, the sign vector of its relative interior.  The cocircuit vectors
    depend only on the lines, so all recession cones of one arrangement
    share one cocircuit search.  Over the lines the cone is one sign
    vector, 0 on a line that carries an equality or inequalities of both
    signs, and its rays are the line cocircuits conformally below it, read
    from the lines' row masks (_conformal) in the order of the search.  A
    zero row is 0 on every point, so it is active on every face; it stays
    out of that search, whose cuts need a row that is not orthogonal to
    the basis.
    """
    rows = list(cone.equalities) + list(cone.inequalities)
    n_eq = len(cone.equalities)
    lines = [_line(row) if any(row) else None for row in rows]
    signs = {}
    for j, (row, line) in enumerate(zip(rows, lines)):
        if line is not None:
            s = 0 if j < n_eq else 1 if _idot(row, line) > 0 else -1
            signs[line] = s if signs.get(line, s) == s else 0
    if not signs:
        return lines, []
    distinct = sorted(signs)
    pos = sum(1 << k for k, line in enumerate(distinct) if signs[line] > 0)
    neg = sum(1 << k for k, line in enumerate(distinct) if signs[line] < 0)
    cocircuits, masks = _line_cocircuits(tuple(distinct))
    conformal, inside = _conformal(masks, (1 << len(cocircuits)) - 1, pos, neg)
    rays = [cocircuits[i][2] for i in _bits(conformal & inside)]
    return lines, [_sign_masks(rows, v) + (v,) for v in rays]


def enumerate_faces(arr):
    """All faces of the arrangement, as the covectors with x0 = + of the
    homogenized arrangement.  Each lies conformally above a cocircuit with
    x0 = +, so the closure starts from those and never builds a covector
    at infinity.  A face's witness is checked by linearity: its dot
    products with the rows are the sums of its cocircuits' dots."""
    m, n = arr.m, arr.dim
    rows = _lift(arr)
    cocircuits = _cocircuits(rows)
    start = [c[:2] for c in cocircuits if c[0] >> m & 1]
    at_infinity = sum(
        [1 << i for i, c in enumerate(cocircuits) if not (c[0] | c[1]) >> m & 1]
    )
    extended = [v + dots for _, _, v, dots in cocircuits]
    hulls = {}
    faces = []
    for (p, q), below in _covectors(cocircuits, m + 1, start).items():
        total = [sum(col) for col in zip(*[extended[i] for i in _bits(below)])]
        y, dots = total[: n + 1], total[n + 1 :]
        signs = tuple([(p >> j & 1) - (q >> j & 1) for j in range(m)])
        if _signs_of(dots) != (p, q):
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
                witness=tuple([Fraction(c, y[n]) for c in y[:n]]),
                dim=len(hulls[zero]),
                essentially_bounded=not below & at_infinity,
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
            ineqs.append(tuple([s * c for c in normal]))
    return HomogeneousCone(
        dim=arr.dim, equalities=tuple(eqs), inequalities=tuple(ineqs)
    )


def lineality_space(arr):
    """Basis of the common lineality space of all hyperplanes."""
    return nullspace([h.normal for h in arr.hyperplanes], arr.dim)
