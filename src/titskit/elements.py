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
from operator import mul

from .geometry import (
    DuplicateHyperplane,
    _same_arrangement,
    make_arrangement,
)
from .lattice import charpoly_under, charpoly_over, deletion_lattice
from .linalg import matrix_rank
from .scalars import Poly, binom_poly
from .tits import (
    TitsElement,
    _divided,
    _support_sums,
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
    if dim < 1:
        raise ValueError("ambient dimension must be positive")
    if m < 0:
        raise ValueError(f"hyperplane count must be nonnegative, got {m}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
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


def build_family(family, n=None, m=None, seed=0):
    """Dispatch used by the command-line interface."""
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
    binom = [binom_poly(k) for k in range(faces.arr.dim + 1)]
    return TitsElement(faces.arr, {f.signs: binom[f.dim] for f in faces})


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
    binom = [binom_poly(k) for k in range(faces.arr.dim - d + 1)]
    return TitsElement(faces.arr, {f.signs: binom[f.dim - d] for f in faces})


def coordinate_element(faces):
    """Element supported on the closed first orthant of the coordinate
    arrangement, with coefficient (t-1)^rank(F); characteristic for t."""
    if faces.arr.kind != "coordinate":
        raise WrongFamily("coordinate element needs a coordinate arrangement")
    t_minus_1 = Poly((Fraction(-1), Fraction(1)))
    powers = [t_minus_1 ** k for k in range(faces.arr.dim + 1)]
    return TitsElement(faces.arr, {
        f.signs: powers[f.dim] for f in faces if all(s >= 0 for s in f.signs)
    })


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
    _same_arrangement(faces.arr, lattice)
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


def _transported(faces, lattice):
    """The parameters of tau and u with their support sums on `lattice`,
    built once per face set and lattice; kept private, never handed out."""
    if getattr(faces, "_transported", (None,))[0] is not lattice:
        faces._transported = lattice, [
            (t, _divided(*_support_sums(lattice, w))) for w, t in
            ((takeuchi_element(faces), -1), (unit_element(faces), 1))]
    return faces._transported[1]


def verify_deletion_restriction(arr, faces, lattice, h):
    """Check chi(A) = chi(A minus H) - chi(A restricted to H).

    The three polynomials are computed on three different lattices.  The
    identity is additionally re-derived through the algebra: the chambers
    of the deletion are the faces of A with no zero off h, those supported
    at the top flat or at the flat {h}, so the support sums of the Takeuchi
    and unit elements there must add up to chi(A minus H) at -1 and at 1.
    Requires the deletion to preserve rank; when it does not, the report
    carries rank_ok=False and no identity claim.
    """
    _same_arrangement(arr, faces, lattice)
    _, dlat = deletion_lattice(arr, lattice, h)
    flat_h = lattice.index_of(frozenset({h}))
    chi_full = lattice.charpoly()
    chi_under = charpoly_under(lattice, flat_h)
    chi_del = dlat.charpoly()
    rank_ok = dlat.rank_top() == lattice.rank_top()
    transport_ok = rank_ok  # a deletion that drops the rank claims nothing
    for t, sums in _transported(faces, lattice) if rank_ok else ():
        lhs = sums.get(lattice.top, 0) + sums.get(flat_h, 0)
        transport_ok = transport_ok and lhs == chi_del(t)
    return DeletionReport(
        hyperplane=h,
        rank_ok=rank_ok,
        chi_full=chi_full,
        chi_deleted=chi_del,
        chi_restriction=chi_under,
        identity_ok=rank_ok and chi_full == chi_del - chi_under,
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

    Both sums are taken as integer numerators over one common denominator
    (b d)^r, for s = a/b, t = c/d and r the rank of the top flat: a
    polynomial sum_j p_j s^j of degree at most r is the numerator
    sum_j p_j a^j b^(r - j) over b^r, and t^rank(X) chi(A_X, t) is one
    such polynomial in t, its coefficients shifted up by rank(X).  Each
    sum becomes one Fraction at the end.
    """
    s = Fraction(s)
    t = Fraction(t)
    r = lattice.rank_top()
    a, b, c, d = s.numerator, s.denominator, t.numerator, t.denominator
    # the numerators of s^j over b^r and of t^j over d^r, j = 0..r
    s_num = [a ** j * b ** (r - j) for j in range(r + 1)]
    t_num = [c ** j * d ** (r - j) for j in range(r + 1)]
    flats = range(len(lattice))
    under = [charpoly_under(lattice, x).coeffs for x in flats]
    under_s = [sum(map(mul, p, s_num)) for p in under]
    under_t = [sum(map(mul, p, t_num)) for p in under]
    top = lattice.top
    flat_num = pair_num = 0
    for x in flats:  # pairs grouped by x, each join read from x's join row
        over = charpoly_over(lattice, x).coeffs
        flat_num += under_s[x] * sum(map(mul, over, t_num[lattice.flats[x].rank:]))
        row = lattice._join_row(x)
        pair_num += under_s[x] * sum([under_t[y] for y in flats if row[y] == top])
    den = (b * d) ** r
    return KungReport(
        s=s,
        t=t,
        lhs=lattice.charpoly()(s * t),
        flat_sum=Fraction(flat_num, den),
        pair_sum=Fraction(pair_num, den),
    )
