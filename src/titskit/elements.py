"""Arrangement builders and the classical characteristic elements.

Families: the braid arrangement (x_i = x_j), the signed analogue
(x_i = +-x_j together with the coordinate hyperplanes), the coordinate
arrangement (x_i = 0), seeded random affine arrangements in general
position, and arrangements loaded from JSON files.  On top of these sit
the Adams-style elements with binomial coefficients, the coordinate
element supported on the first orthant, Zaslavsky's chamber counts, and
numeric verifiers for the deletion-restriction and Kung convolution
identities of the characteristic polynomial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .geometry import (
    Arrangement,
    DuplicateHyperplane,
    load_arrangement,
    make_arrangement,
)
from .lattice import (
    build_lattice,
    charpoly_under,
    charpoly_over,
    deletion_lattice,
    subarrangement_map,
)
from .linalg import matrix_rank
from .scalars import Poly, binom_poly
from .tits import (
    TitsElement,
    chamber_sum,
    pushforward,
    support_sum,
    takeuchi_element,
    unit_element,
)


class WrongFamily(ValueError):
    """An element requested for an arrangement outside its family."""


class GenericDegenerate(RuntimeError):
    """Random draws kept failing the general-position check."""


def braid_arrangement(n):
    """Hyperplanes x_i = x_j for i < j in R^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = []
    for i, j in combinations(range(n), 2):
        normal = [0] * n
        normal[i] = 1
        normal[j] = -1
        rows.append((normal, 0))
    return make_arrangement(n, rows, kind="braid", params={"n": n})


def signed_braid_arrangement(n):
    """Hyperplanes x_i = x_j, x_i = -x_j (i < j) and x_k = 0 in R^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = []
    for i, j in combinations(range(n), 2):
        plus = [0] * n
        plus[i] = 1
        plus[j] = -1
        minus = [0] * n
        minus[i] = 1
        minus[j] = 1
        rows.append((plus, 0))
        rows.append((minus, 0))
    for k in range(n):
        normal = [0] * n
        normal[k] = 1
        rows.append((normal, 0))
    return make_arrangement(n, rows, kind="signed-braid", params={"n": n})


def coordinate_arrangement(n):
    """Hyperplanes x_i = 0 in R^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = []
    for i in range(n):
        normal = [0] * n
        normal[i] = 1
        rows.append((normal, 0))
    return make_arrangement(n, rows, kind="coordinate", params={"n": n})


def in_general_position(arr):
    """Every k <= dim hyperplanes meet transversally; no dim+1 share a point."""
    n = arr.dim
    rows = [list(h.normal) + [h.offset] for h in arr.hyperplanes]
    for k in range(2, min(arr.m, n) + 1):
        for subset in combinations(range(arr.m), k):
            if matrix_rank([arr.hyperplanes[i].normal for i in subset]) != k:
                return False
    if arr.m >= n + 1:
        for subset in combinations(range(arr.m), n + 1):
            aug = [rows[i] for i in subset]
            if matrix_rank(aug) != n + 1:
                return False
    return True


def generic_arrangement(dim, m, seed, max_tries=500):
    """Seeded random affine arrangement in general position."""
    if m < 0:
        raise ValueError(f"hyperplane count must be nonnegative, got {m}")
    rng = random.Random(seed)
    for _ in range(max_tries):
        rows = []
        for _ in range(m):
            while True:
                normal = [rng.randint(-4, 4) for _ in range(dim)]
                if any(normal):
                    break
            rows.append((normal, rng.randint(-4, 4)))
        try:
            arr = make_arrangement(
                dim, rows, kind="generic", params={"n": dim, "m": m, "seed": seed}
            )
        except DuplicateHyperplane:
            continue
        if in_general_position(arr):
            return arr
    raise GenericDegenerate(
        f"no general-position draw in {max_tries} tries (dim={dim}, m={m})"
    )


def build_family(family, n=None, m=None, seed=0, path=None):
    """Dispatch used by the command-line interface."""
    if family == "file":
        if path is None:
            raise ValueError("loading from file needs a path")
        return load_arrangement(path)
    if n is None:
        raise ValueError(f"family {family!r} needs --n")
    if family == "braid":
        return braid_arrangement(n)
    if family == "signed-braid":
        return signed_braid_arrangement(n)
    if family == "coordinate":
        return coordinate_arrangement(n)
    if family == "generic":
        return generic_arrangement(n, m if m is not None else n + 1, seed)
    raise ValueError(f"unknown family {family!r}")


def adams_a(faces):
    """Adams element of the braid arrangement: coefficient binom(t, dim F).

    Dividing by t (every face of the braid arrangement has dim >= 1) gives
    an element characteristic for the parameter t.
    """
    if faces.arr.kind != "braid":
        raise WrongFamily("Adams element of type A needs a braid arrangement")
    return TitsElement(
        faces.arr, {f.signs: binom_poly(f.dim) for f in faces}
    )


def adams_a_normalized(faces):
    """(1/t) times the braid Adams element; characteristic for t."""
    return adams_a(faces).map_coeffs(lambda p: p.divided_by_t())


def adams_b(faces):
    """Adams element of the signed braid arrangement: binom(t, rank F).

    Characteristic for the parameter 2t + 1.
    """
    if faces.arr.kind != "signed-braid":
        raise WrongFamily(
            "Adams element of type B needs a signed braid arrangement"
        )
    d = faces.min_dim
    return TitsElement(
        faces.arr, {f.signs: binom_poly(f.dim - d) for f in faces}
    )


def coordinate_element(faces):
    """Element supported on the closed first orthant of the coordinate
    arrangement, with coefficient (t-1)^rank(F); characteristic for t."""
    if faces.arr.kind != "coordinate":
        raise WrongFamily("coordinate element needs a coordinate arrangement")
    t_minus_1 = Poly((Fraction(-1), Fraction(1)))
    out = {}
    for f in faces:
        if all(s >= 0 for s in f.signs):
            out[f.signs] = t_minus_1 ** f.dim
    return TitsElement(faces.arr, out)


@dataclass(frozen=True)
class ZaslavskyReport:
    rank: int
    chambers_census: int
    bounded_census: int
    chambers_from_chi: int
    bounded_from_chi: int

    @property
    def ok(self):
        return (
            self.chambers_census == self.chambers_from_chi
            and self.bounded_census == self.bounded_from_chi
        )


def zaslavsky_counts(faces, lattice):
    """Chamber counts two ways: direct census vs evaluations of chi."""
    chi = lattice.charpoly()
    r = lattice.rank_top()
    sign = (-1) ** r
    chambers = faces.chambers()
    return ZaslavskyReport(
        rank=r,
        chambers_census=len(chambers),
        bounded_census=sum(1 for f in chambers if f.essentially_bounded),
        chambers_from_chi=int(sign * chi(Fraction(-1))),
        bounded_from_chi=int(sign * chi(Fraction(1))),
    )


@dataclass(frozen=True)
class DeletionReport:
    hyperplane: int
    rank_ok: bool
    chi_full: object
    chi_deleted: object
    chi_restriction: object
    identity_ok: bool
    transport_ok: bool

    @property
    def ok(self):
        return self.rank_ok and self.identity_ok and self.transport_ok


def verify_deletion_restriction(arr, faces, lattice, h):
    """Check chi(A) = chi(A minus H) - chi(A restricted to H).

    The three polynomials are computed on three different lattices.  The
    identity is additionally re-derived through the algebra: pushing the
    Takeuchi and unit elements forward along the deletion map and summing
    their chamber coefficients must reproduce the same bookkeeping.
    Requires the deletion to preserve rank; when it does not, the report
    carries rank_ok=False and no identity claim.
    """
    flat_h = lattice.index_of(frozenset({h}))
    chi_full = lattice.charpoly()
    chi_under = charpoly_under(lattice, flat_h)
    sub, dlat = deletion_lattice(arr, lattice, h)
    chi_del = dlat.charpoly()
    if dlat.rank_top() != lattice.rank_top():
        return DeletionReport(
            hyperplane=h,
            rank_ok=False,
            chi_full=chi_full,
            chi_deleted=chi_del,
            chi_restriction=chi_under,
            identity_ok=False,
            transport_ok=False,
        )
    identity_ok = chi_full == chi_del - chi_under

    fmap = subarrangement_map(arr, [i for i in range(arr.m) if i != h])
    transport_ok = True
    for w, t in ((takeuchi_element(faces), Fraction(-1)),
                 (unit_element(faces), Fraction(1))):
        image = pushforward(fmap, w)
        image_chambers = sum(
            (c for signs, c in image.coeffs.items() if all(signs)), Fraction(0)
        )
        lhs = chamber_sum(lattice, w) + support_sum(lattice, w, flat_h)
        transport_ok = transport_ok and image_chambers == lhs
        transport_ok = transport_ok and image_chambers == chi_del(t)
    return DeletionReport(
        hyperplane=h,
        rank_ok=True,
        chi_full=chi_full,
        chi_deleted=chi_del,
        chi_restriction=chi_under,
        identity_ok=identity_ok,
        transport_ok=transport_ok,
    )


@dataclass(frozen=True)
class KungReport:
    s: Fraction
    t: Fraction
    lhs: Fraction
    flat_sum: Fraction
    pair_sum: Fraction

    @property
    def ok(self):
        return self.lhs == self.flat_sum == self.pair_sum


def verify_kung(lattice, s, t):
    """Convolution identity for chi at a rational parameter pair (s, t):

        chi(A, st) = sum_X t^rank(X) chi(A^X, s) chi(A_X, t)
                   = sum over pairs X, Y with X join Y = top of
                     chi(A^X, s) chi(A^Y, t).
    """
    s = Fraction(s)
    t = Fraction(t)
    under = {x: charpoly_under(lattice, x) for x in range(len(lattice))}
    over = {x: charpoly_over(lattice, x) for x in range(len(lattice))}
    lhs = lattice.charpoly()(s * t)
    flat_sum = sum(
        (
            t ** lattice.flat(x).rank * under[x](s) * over[x](t)
            for x in range(len(lattice))
        ),
        Fraction(0),
    )
    pair_sum = Fraction(0)
    for x in range(len(lattice)):
        for y in range(len(lattice)):
            if lattice.join(x, y) == lattice.top:
                pair_sum += under[x](s) * under[y](t)
    return KungReport(s=s, t=t, lhs=lhs, flat_sum=flat_sum, pair_sum=pair_sum)
