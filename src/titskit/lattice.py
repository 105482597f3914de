"""The join-semilattice of flats and its Mobius/characteristic machinery.

A flat is a nonempty intersection of hyperplanes (including the empty
intersection, the ambient space).  Flats are keyed by their closures: the
set of ALL hyperplane indices containing the subspace.  Every flat is the
affine hull of a face, so the flats are the zero sets of the faces, and a
flat's dimension is the dimension of its faces; no linear algebra is done
here.  Under the inclusion order the ambient space is the top element;
joins always exist (the closure of the join is the intersection of the
closures) while meets may not in the affine case.  Ranks are dimensions
shifted by the common lineality dimension d, the smallest flat dimension.
Order questions read each flat's below- and above-set, built once, and one
pass over the intervals gives the Mobius function and checks gradedness.
Every flat of a deletion A minus H is a flat of A (Orlik and Terao, 2.3),
so the deletion's lattice is read off the flats of A, not its faces.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from operator import and_, itemgetter
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


@dataclass(frozen=True)
class Flat:
    """A flat: the set of hyperplanes containing it, plus dimension data."""

    closure: frozenset
    dim: int
    rank: int


class _FaceSupport(dict):
    """Flat index by sign vector.  Once it holds every face (build_lattice)
    a miss is not a face; until then a sign vector maps by its zero set."""

    complete = False

    def __missing__(self, signs):
        if self.complete:
            raise NotAFace(f"{signs_to_str(signs)} is not a face")
        zeros = frozenset(j for j, s in enumerate(signs) if s == 0)
        x = self[signs] = self.index[zeros]
        return x


class FlatLattice:
    """Flats of one arrangement, in order of rank, with joins and Mobius."""

    def __init__(self, arr, flats, face_support=None):
        self.arr = arr
        self.flats = tuple(flats)
        self._index = {f.closure: i for i, f in enumerate(self.flats)}
        self.top = self._index[frozenset()]
        self.d = self.flats[0].dim - self.flats[0].rank
        self.face_support = _FaceSupport(face_support or ())
        self.face_support.index = self._index
        # built on first use: chi, Q basis, join rows, matched entries by t
        self._chi = self._q = None
        self._rows, self._matched = {}, {}
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
        self._mobius = [self._mobius_row(y) for y in range(len(self.flats))]

    # -- order ----------------------------------------------------------

    def __len__(self):
        return len(self.flats)

    def _checked(self, x):
        if not 0 <= x < len(self.flats):
            raise IndexOutOfRange(f"no flat with index {x}")
        return x

    def flat(self, x):
        return self.flats[self._checked(x)]

    def index_of(self, closure):
        return self._index[frozenset(closure)]

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

    def above_mask(self, x):
        """The flats containing flat x, as a bitmask over flat indices."""
        return self._above[self._checked(x)]

    def _join_row(self, x):
        """x join y for every flat y, as an array built on first use."""
        if x not in self._rows:
            ups = map(self._above[x].__and__, self._above)
            self._rows[x] = array("I", [(k & -k).bit_length() - 1 for k in ups])
        return self._rows[x]

    def rank_top(self):
        return self.flats[self.top].rank

    # -- Mobius function --------------------------------------------------

    def _mobius_row(self, y):
        """mu(y, x) for each x >= y; x covers y when [y, x) holds y alone."""
        row = {y: 1}
        ry = self.flats[y].rank
        for x in _bits(self._above[y] ^ (1 << y)):
            interval = (self._below[x] & self._above[y]) ^ (1 << x)
            if interval == 1 << y and self.flats[x].rank != ry + 1:
                raise UngradedLattice(
                    f"cover {y} < {x} jumps rank {ry} -> {self.flats[x].rank}"
                )
            row[x] = -sum(row[z] for z in _bits(interval))
        return row

    def mobius(self, y, x):
        row = self._mobius[self._checked(y)]
        if self._checked(x) not in row:
            raise NotComparable(f"flat {y} is not below flat {x}")
        return row[x]

    def mobius_row(self, y):
        """mu(y, x) for every flat x >= y, in index order, read-only."""
        return MappingProxyType(self._mobius[self._checked(y)])

    # -- characteristic polynomials ---------------------------------------

    def charpoly(self):
        """chi(t) = sum over flats Y of mu(Y, top) t^rank(Y)."""
        if self._chi is None:
            self._chi = charpoly_under(self, self.top)
        return self._chi


def support_closure(arr, face):
    """Indices of all hyperplanes containing the affine hull of the face:
    its zero set, since a face lies in H_j exactly when its sign there is 0."""
    return frozenset(j for j, s in enumerate(face.signs) if s == 0)


def _lattice(arr, dims):
    """Flat lattice from (closure, dim) pairs covering the flats: each
    takes the largest dim among its pairs, and d is the smallest dim."""
    flat_dim = {}
    for c, dim in dims:
        flat_dim[c] = max(dim, flat_dim.get(c, dim))
    d = min(flat_dim.values())
    flats = sorted(
        (Flat(closure=c, dim=dim, rank=dim - d) for c, dim in flat_dim.items()),
        key=lambda f: (f.rank, sorted(f.closure)),
    )
    return FlatLattice(arr, flats)


def build_lattice(arr, faces):
    """Flat lattice of an arrangement: the zero sets of its faces, each
    with the dimension of its faces; every face maps to its zero set, and
    a sign vector that is not a face to NotAFace."""
    if not (isinstance(faces, FaceSet) and faces.arr is arr):
        raise ArrangementMismatch("build_lattice needs the FaceSet of arr")
    zeros = {f.signs: support_closure(arr, f) for f in faces}
    lat = _lattice(arr, ((zeros[f.signs], f.dim) for f in faces))
    lat.face_support.update({s: lat._index[c] for s, c in zeros.items()})
    lat.face_support.complete = True
    return lat


def charpoly_under(lattice, x):
    """chi of the restriction to flat x: sum_{Y <= x} mu(Y, x) t^rank(Y).

    Ranks are taken in the ambient arrangement, so for affine arrangements
    this matches the convention in which the interval below x is never
    re-embedded in the subspace x.
    """
    coeffs = [0] * (lattice.flat(x).rank + 1)
    for y in lattice.below(x):
        coeffs[lattice.flats[y].rank] += lattice._mobius[y][x]
    return Poly(coeffs)


def charpoly_over(lattice, x):
    """chi of the localization at flat x, on the interval above x:
    sum_{Y >= x} mu(Y, top) t^(rank(Y) - rank(x))."""
    rx = lattice.flat(x).rank
    coeffs = [0] * (lattice.rank_top() - rx + 1)
    for y in lattice.above(x):
        coeffs[lattice.flats[y].rank - rx] += lattice._mobius[y][lattice.top]
    return Poly(coeffs)


@dataclass(frozen=True)
class SubarrangementMap:
    """Restriction of sign vectors to a subset of hyperplane indices."""

    source: object
    indices: tuple
    target: object

    def __post_init__(self):
        # a slice keeps one index or none a tuple, which itemgetter would not
        i = self.indices
        keys = i if len(i) > 1 else [slice(i[0], i[0] + 1) if i else slice(0)]
        object.__setattr__(self, "_restrict", itemgetter(*keys))

    def __call__(self, signs):
        return self._restrict(signs)


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
    read off `lattice.flats` alone: each closure loses h, and a flat X of
    the deletion, the image of X and maybe of X meet H, takes the largest
    dim among the flats mapping to it.  Returns (map, lattice); map.target
    is the deletion, whose faces map to their flats on first lookup."""
    _same_arrangement(arr, lattice)
    if not 0 <= h < arr.m:
        raise IndexOutOfRange(f"hyperplane index {h} out of range")
    fmap = subarrangement_map(arr, [i for i in range(arr.m) if i != h])
    dims = (
        (frozenset([j - (j > h) for j in f.closure if j != h]), f.dim)
        for f in lattice.flats
    )
    return fmap, _lattice(fmap.target, dims)
