"""The join-semilattice of flats and its Mobius/characteristic machinery.

A flat is a nonempty intersection of hyperplanes (including the empty
intersection, the ambient space).  Flats are keyed by their zero masks: bit
j is set when H_j contains the subspace.  A flat's closure is the same set
of ALL hyperplane indices containing it, built once per flat.  Every flat
is the affine hull of a face, so the flats are the zero sets of the faces,
and a flat's dimension is the dimension of its faces; no linear algebra is
done here.  The support of a face, the flat it spans, is the flat of its
zero mask: read off the face's packed key on a lattice that keeps its face
set, off the signs otherwise.  Under the inclusion order the ambient space
is the top element; joins always exist (the closure of the join is the
intersection of the closures) while meets may not in the affine case.
Ranks are dimensions shifted by the common lineality dimension d, the
smallest flat dimension.  Order questions read each flat's below- and
above-set, built once, and gradedness is checked once, on the covers.  The
Mobius function is read by columns: mu(., x) is built the first time it is
read and kept, so chi costs the one column at the top.
Every flat of a deletion A minus H is a flat of A (Orlik and Terao, 2.3),
so the deletion's lattice is read off the flats of A, not its faces: each
zero mask drops bit h.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from operator import and_
from types import MappingProxyType

from .geometry import (
    Arrangement,
    ArrangementMismatch,
    FaceSet,
    NotAFace,
    _bits,
    _same_arrangement,
    signs_to_str,
)
from .scalars import Poly


class NotComparable(ValueError):
    """Mobius function queried on an incomparable pair of flats."""


class IndexOutOfRange(IndexError):
    """A hyperplane or flat index outside the valid range."""


class UngradedLattice(RuntimeError):
    """A cover relation that does not raise rank by one."""


class NotAFlat(ValueError):
    """A set of hyperplanes that is the closure of no flat."""


@dataclass(frozen=True)
class Flat:
    """A flat: the set of hyperplanes containing it, plus dimension data."""

    closure: frozenset
    dim: int
    rank: int


class FlatLattice:
    """Flats of one arrangement, in order of rank, with joins and Mobius;
    `faces` is the face set they were read from, or None."""

    def __init__(self, arr, flats, faces=None):
        self.arr = arr
        self.flats = tuple(flats)
        self.faces = faces
        self._by_mask = {self._mask(f.closure): i
                         for i, f in enumerate(self.flats)}
        if 0 not in self._by_mask:
            raise ValueError("flats must include the ambient space")
        self.top = self._by_mask[0]
        self.d = self.flats[0].dim - self.flats[0].rank
        # built on first use: Q basis, join rows, Mobius columns, matched
        # entries by t
        self._q = None
        self._rows, self._columns, self._matched = {}, {}, {}
        # masks over flat indices: y <= x when y lies on every hyperplane
        # through x, and x <= y when y lies on no hyperplane missing x
        full = (1 << len(self.flats)) - 1
        on = [sum(1 << i for i, f in enumerate(self.flats) if j in f.closure)
              for j in range(arr.m)]
        self._below = [reduce(and_, (on[j] for j in f.closure), full)
                       for f in self.flats]
        self._above = [reduce(and_, (full ^ on[j] for j in range(arr.m)
                                     if j not in f.closure), full)
                       for f in self.flats]
        if any(up & ((1 << i) - 1) for i, up in enumerate(self._above)):
            raise ValueError("flats must be listed in order of rank")
        # a flat above y and above no flat one rank above y covers y, and
        # so jumps rank; the lowest such flat is y's first cover that does
        rank = [f.rank for f in self.flats]
        level = {}
        for i, r in enumerate(rank):
            level[r] = level.get(r, 0) | 1 << i
        for y, up in enumerate(self._above):
            jumps = up ^ 1 << y
            for z in _bits(up & level.get(rank[y] + 1, 0)):
                jumps &= ~self._above[z]
            if jumps:
                x = next(_bits(jumps))
                raise UngradedLattice(
                    f"cover {y} < {x} jumps rank {rank[y]} -> {rank[x]}"
                )

    # -- order ----------------------------------------------------------

    def __len__(self):
        return len(self.flats)

    def _mask(self, indices):
        """The bitmask of a set of hyperplane indices, each in [0, m)."""
        mask = 0
        for j in indices:
            if not 0 <= j < self.arr.m:
                raise IndexOutOfRange(f"hyperplane index {j} out of range")
            mask |= 1 << j
        return mask

    def _checked(self, x):
        if not 0 <= x < len(self.flats):
            raise IndexOutOfRange(f"no flat with index {x}")
        return x

    def flat(self, x):
        return self.flats[self._checked(x)]

    def index_of(self, closure):
        """Index of the flat on exactly the hyperplanes of closure."""
        mask = self._mask(closure)
        if mask not in self._by_mask:
            raise NotAFlat(f"no flat lies on exactly hyperplanes {sorted(_bits(mask))}")
        return self._by_mask[mask]

    def support(self, signs):
        """Index of the flat a face spans, the flat of its zero mask.  With
        the face set, the mask is read off the face's packed key, and a
        sign vector that is not a face raises NotAFace; without it, off the
        signs, and only a zero set that is no flat, or a sign vector whose
        length is not m, raises."""
        try:
            if self.faces is None:
                if len(signs) != self.arr.m:
                    raise KeyError(signs)
                zeros = self._mask([j for j, s in enumerate(signs) if not s])
            else:
                key, m = self.faces.packed()[signs], self.arr.m
                zeros = (1 << m) - 1 & ~(key | key >> m)
            return self._by_mask[zeros]
        except (KeyError, IndexOutOfRange):
            raise NotAFace(f"{signs_to_str(signs)} is not a face") from None

    def leq(self, y, x):
        """Whether flat y is contained in flat x."""
        return bool(self._below[self._checked(x)] >> self._checked(y) & 1)

    def join(self, x, y):
        """Smallest flat containing x and y: their lowest-index upper bound."""
        up = self._above[self._checked(x)] & self._above[self._checked(y)]
        return (up & -up).bit_length() - 1

    def below(self, x):
        return list(_bits(self._below[self._checked(x)]))

    def above(self, x):
        return list(_bits(self._above[self._checked(x)]))

    def _join_row(self, x):
        """x join y for every flat y, as an array built on first use."""
        if x not in self._rows:
            ups = map(self._above[x].__and__, self._above)
            self._rows[x] = array("I", [(k & -k).bit_length() - 1 for k in ups])
        return self._rows[x]

    def rank_top(self):
        return self.flats[self.top].rank

    # -- Mobius function --------------------------------------------------

    def _column(self, x):
        """mu(y, x) for each y <= x, built on first use: mu(x, x) = 1, and
        downward mu(y, x) = -(sum of mu(z, x) over y < z <= x)."""
        col = self._columns.get(x)
        if col is None:
            down = self._below[x]
            col = self._columns[x] = {x: 1}
            for y in reversed(list(_bits(down ^ 1 << x))):
                col[y] = -sum([col[z] for z in _bits(self._above[y] & down ^ 1 << y)])
        return col

    def mobius(self, y, x):
        col = self._column(self._checked(x))
        if self._checked(y) not in col:
            raise NotComparable(f"flat {y} is not below flat {x}")
        return col[y]

    def mobius_row(self, y):
        """mu(y, x) for every flat x >= y, in index order, read-only."""
        above = _bits(self._above[self._checked(y)])
        return MappingProxyType({x: self._column(x)[y] for x in above})

    # -- characteristic polynomials ---------------------------------------

    def charpoly(self):
        """chi(t) = sum over flats Y of mu(Y, top) t^rank(Y)."""
        return charpoly_under(self, self.top)


def _lattice(arr, dims, faces=None):
    """Flat lattice from (zero mask, dim) pairs covering the flats: each
    takes the largest dim among its pairs, and d is the smallest dim."""
    flat_dim = {}
    for z, dim in dims:
        flat_dim[z] = max(dim, flat_dim.get(z, dim))
    d = min(flat_dim.values())
    flats = sorted(
        (Flat(closure=frozenset(_bits(z)), dim=dim, rank=dim - d)
         for z, dim in flat_dim.items()),
        key=lambda f: (f.rank, sorted(f.closure)),
    )
    return FlatLattice(arr, flats, faces)


def build_lattice(arr, faces):
    """Flat lattice of an arrangement: the zero masks of its faces, read
    off their packed keys, each with the dimension of its faces.  The
    lattice keeps the face set, so `support` raises NotAFace for a sign
    vector that is not one of its faces."""
    if not (isinstance(faces, FaceSet) and faces.arr is arr):
        raise ArrangementMismatch("build_lattice needs the FaceSet of arr")
    m, packed = arr.m, faces.packed()
    # the faces with one zero mask span one flat, of their dimension
    dims = {(1 << m) - 1 & ~(k | k >> m): f.dim
            for f in faces for k in [packed[f.signs]]}
    return _lattice(arr, dims.items(), faces)


def charpoly_under(lattice, x):
    """chi of the restriction to flat x: sum_{Y <= x} mu(Y, x) t^rank(Y),
    read off the Mobius column of x.

    Ranks are taken in the ambient arrangement, so for affine arrangements
    this matches the convention in which the interval below x is never
    re-embedded in the subspace x.
    """
    coeffs = [0] * (lattice.flat(x).rank + 1)
    for y, mu in lattice._column(x).items():
        coeffs[lattice.flats[y].rank] += mu
    return Poly(coeffs)


def charpoly_over(lattice, x):
    """chi of the localization at flat x, on the interval above x:
    sum_{Y >= x} mu(Y, top) t^(rank(Y) - rank(x)), off the top column."""
    rx = lattice.flat(x).rank
    col = lattice._column(lattice.top)
    coeffs = [0] * (lattice.rank_top() - rx + 1)
    for y in lattice.above(x):
        coeffs[lattice.flats[y].rank - rx] += col[y]
    return Poly(coeffs)


@dataclass(frozen=True)
class SubarrangementMap:
    """Restriction of sign vectors to a subset of hyperplane indices."""

    source: object
    indices: tuple
    target: object

    def __call__(self, signs):
        if len(signs) != self.source.m:
            raise NotAFace(f"{signs_to_str(signs)} is not a face")
        return tuple([signs[i] for i in self.indices])


def subarrangement_map(arr, indices):
    indices = tuple(indices)
    for i in indices:
        if not 0 <= i < arr.m:
            raise IndexOutOfRange(f"hyperplane index {i} out of range")
    if len(set(indices)) != len(indices):
        raise ValueError("repeated hyperplane index")
    target = Arrangement(
        dim=arr.dim,
        hyperplanes=tuple([arr.hyperplanes[i] for i in indices]),
        kind="custom",
        params={"subset_of": arr.kind},
    )
    return SubarrangementMap(source=arr, indices=indices, target=target)


def deletion_lattice(arr, lattice, h):
    """Restriction map dropping hyperplane h, and the deletion's lattice,
    read off `lattice.flats` alone: each zero mask drops bit h, and a flat
    X of the deletion, the image of X and maybe of X meet H, takes the
    largest dim among the flats mapping to it.  Returns (map, lattice);
    map.target is the deletion, whose lattice maps a sign vector to the
    flat of its zero set."""
    _same_arrangement(arr, lattice)
    if not 0 <= h < arr.m:
        raise IndexOutOfRange(f"hyperplane index {h} out of range")
    fmap = subarrangement_map(arr, [i for i in range(arr.m) if i != h])
    low = (1 << h) - 1
    dims = (
        (z & low | z >> (h + 1) << h, lattice.flats[x].dim)
        for z, x in lattice._by_mask.items()
    )
    return fmap, _lattice(fmap.target, dims)
