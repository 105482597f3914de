"""The join-semilattice of flats and its Mobius/characteristic machinery.

A flat is a nonempty intersection of hyperplanes (including the empty
intersection, the ambient space).  Flats are keyed by their closures: the
set of ALL hyperplane indices containing the subspace.  Every flat is the
affine hull of a face, so the flats are the zero sets of the faces, and a
flat's dimension is the dimension of its faces; no linear algebra is done
here.  Under the inclusion order the ambient space is the top element;
joins always exist (the closure of the join is the intersection of the
closures) while meets may not in the affine case.  Ranks are dimensions
shifted by the common lineality dimension d, the smallest flat dimension;
gradedness of the poset by this rank is validated explicitly when the
lattice is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Arrangement, ArrangementMismatch, FaceSet
from .scalars import Poly, T


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


class FlatLattice:
    """Flats of one arrangement with order, joins, and Mobius function."""

    def __init__(self, arr, flats, face_support=None):
        self.arr = arr
        self.flats = tuple(flats)
        self._index = {f.closure: i for i, f in enumerate(self.flats)}
        self.top = self._index[frozenset()]
        self.d = self.flats[0].dim - self.flats[0].rank
        self.face_support = face_support or {}
        self._mobius = self._mobius_table()
        self._validate_graded()

    # -- order ----------------------------------------------------------

    def __len__(self):
        return len(self.flats)

    def flat(self, x):
        if not 0 <= x < len(self.flats):
            raise IndexOutOfRange(f"no flat with index {x}")
        return self.flats[x]

    def index_of(self, closure):
        return self._index[frozenset(closure)]

    def leq(self, y, x):
        """Whether flat y is contained in flat x."""
        return self.flat(y).closure >= self.flat(x).closure

    def join(self, x, y):
        """Smallest flat containing both x and y."""
        return self._index[self.flat(x).closure & self.flat(y).closure]

    def below(self, x):
        return [y for y in range(len(self.flats)) if self.leq(y, x)]

    def above(self, x):
        return [y for y in range(len(self.flats)) if self.leq(x, y)]

    def rank_top(self):
        return self.flats[self.top].rank

    # -- Mobius function --------------------------------------------------

    def _mobius_table(self):
        order = sorted(range(len(self.flats)), key=lambda i: self.flats[i].rank)
        table = {}
        for yi in order:
            interval = [x for x in order if self.leq(yi, x)]
            table[(yi, yi)] = 1
            for xi in sorted(interval, key=lambda i: self.flats[i].rank):
                if xi == yi:
                    continue
                acc = 0
                for zi in interval:
                    if zi != xi and self.leq(zi, xi):
                        acc += table[(yi, zi)]
                table[(yi, xi)] = -acc
        return table

    def mobius(self, y, x):
        self.flat(y), self.flat(x)
        if not self.leq(y, x):
            raise NotComparable(f"flat {y} is not below flat {x}")
        return self._mobius[(y, x)]

    def _validate_graded(self):
        n = len(self.flats)
        for y in range(n):
            for x in range(n):
                if x == y or not self.leq(y, x):
                    continue
                covered = not any(
                    z != x and z != y and self.leq(y, z) and self.leq(z, x)
                    for z in range(n)
                )
                if covered and self.flats[x].rank != self.flats[y].rank + 1:
                    raise UngradedLattice(
                        f"cover {y} < {x} jumps rank "
                        f"{self.flats[y].rank} -> {self.flats[x].rank}"
                    )

    # -- characteristic polynomials ---------------------------------------

    def charpoly(self):
        """chi(t) = sum over flats Y of mu(Y, top) t^rank(Y)."""
        acc = Poly()
        for y in range(len(self.flats)):
            acc = acc + self.mobius(y, self.top) * T ** self.flats[y].rank
        return acc

    def support_index(self, face):
        """Index of the flat spanned by a face (its support)."""
        signs = face.signs if hasattr(face, "signs") else tuple(face)
        return self.face_support[signs]


def support_closure(arr, face):
    """Indices of all hyperplanes containing the affine hull of the face:
    its zero set, since a face lies in H_j exactly when its sign there is 0."""
    return frozenset(j for j, s in enumerate(face.signs) if s == 0)


def _lattice(arr, dims):
    """Flat lattice from (sign vector, dim) pairs covering the faces.

    Each flat is a zero set, with the largest dim among the pairs that
    share it; a sign vector may repeat.  d is the smallest flat dim, and
    every sign vector maps to the flat of its zero set.
    """
    zeros = {}
    flat_dim = {}
    for signs, dim in dims:
        c = frozenset(j for j, s in enumerate(signs) if s == 0)
        zeros[signs] = c
        flat_dim[c] = max(dim, flat_dim.get(c, dim))
    d = min(flat_dim.values())
    flats = sorted(
        (Flat(closure=c, dim=dim, rank=dim - d) for c, dim in flat_dim.items()),
        key=lambda f: (f.rank, sorted(f.closure)),
    )
    index = {f.closure: i for i, f in enumerate(flats)}
    return FlatLattice(arr, flats, {s: index[c] for s, c in zeros.items()})


def build_lattice(arr, faces):
    """Flat lattice of an arrangement: the zero sets of its faces, each
    with the dimension of its faces."""
    if not (isinstance(faces, FaceSet) and faces.arr is arr):
        raise ArrangementMismatch("build_lattice needs the FaceSet of arr")
    return _lattice(arr, ((f.signs, f.dim) for f in faces))


def charpoly_under(lattice, x):
    """chi of the restriction to flat x: sum_{Y <= x} mu(Y, x) t^rank(Y).

    Ranks are taken in the ambient arrangement, so for affine arrangements
    this matches the convention in which the interval below x is never
    re-embedded in the subspace x.
    """
    acc = Poly()
    for y in lattice.below(x):
        acc = acc + lattice.mobius(y, x) * T ** lattice.flat(y).rank
    return acc


def charpoly_over(lattice, x):
    """chi of the localization at flat x, on the interval above x:
    sum_{Y >= x} mu(Y, top) t^(rank(Y) - rank(x))."""
    rx = lattice.flat(x).rank
    acc = Poly()
    for y in lattice.above(x):
        acc = acc + lattice.mobius(y, lattice.top) * T ** (
            lattice.flat(y).rank - rx
        )
    return acc


@dataclass(frozen=True)
class SubarrangementMap:
    """Restriction of sign vectors to a subset of hyperplane indices."""

    source: object
    indices: tuple
    target: object

    def __call__(self, signs):
        return tuple(signs[i] for i in self.indices)


def subarrangement_map(arr, indices):
    indices = tuple(indices)
    for i in indices:
        if not 0 <= i < arr.m:
            raise IndexOutOfRange(f"hyperplane index {i} out of range")
    if len(set(indices)) != len(indices):
        raise ValueError("repeated hyperplane index")
    target = Arrangement(
        dim=arr.dim,
        hyperplanes=tuple(arr.hyperplanes[i] for i in indices),
        kind="custom",
        params={"subset_of": arr.kind},
    )
    return SubarrangementMap(source=arr, indices=indices, target=target)


def deletion_lattice(arr, lattice, h):
    """Flat lattice of the arrangement with hyperplane h removed.

    The covectors of a deletion are the restrictions of the covectors of
    the full arrangement, so the faces of the deletion are the faces of
    `lattice.face_support` with entry h dropped.  A face of the deletion
    is a union of faces of the full arrangement, and its flat has the
    largest dimension among their flats.  This avoids re-running face
    enumeration.  Returns (deleted_arrangement, its_lattice).
    """
    if not 0 <= h < arr.m:
        raise IndexOutOfRange(f"hyperplane index {h} out of range")
    sub = Arrangement(
        dim=arr.dim,
        hyperplanes=tuple(arr.hyperplanes[:h] + arr.hyperplanes[h + 1:]),
        kind="custom",
        params={"deleted": h, "from": arr.kind},
    )
    dims = (
        (signs[:h] + signs[h + 1:], lattice.flat(x).dim)
        for signs, x in lattice.face_support.items()
    )
    return sub, _lattice(sub, dims)
