"""Conic intrinsic volumes and the volume-weighted characteristic element.

The intrinsic volume v_k of a polyhedral cone C is the Gaussian measure of
the set of points whose nearest point in C lies in a k-dimensional face.
Two evaluation paths:

* exact, when the cone has essential dimension at most three (subspaces,
  rays, planar wedges and spherical polygons modulo lineality): the angles
  between the exact extreme rays give the wedge's v_k and, by Girard's
  theorem and McMullen's angle sums, the polygon's.  The rays and their
  Gram matrix are integers over one common scale, and floats enter only
  at each cosine, one correctly rounded division, and its arccos
  (try_exact_profile);
* Monte Carlo otherwise.  Gaussian samples are rationalized to dyadic
  rationals, and each is given its face by exact integer sign tests: by
  the Moreau decomposition the nearest point of x is P_F x, for the one
  face F with P_F x in the relative interior of F and x - P_F x in the
  normal cone at F (_cells).  Each face's tests are its own primitive
  integer rows, so there is no distance, no common denominator across
  faces and no search.  Chunked substreams keyed by (seed, chunk index)
  make runs reproducible bit for bit regardless of execution order.

A cone's faces and rays come from the covectors of its own rows, not from
an LP per subset of inequalities.  One reading of the rows
(geometry._cone_rays) gives each row's line and the rays, the cocircuits
that are 0 on the equalities and nowhere negative; it is the only place
lines are derived.  The faces are the rays' closure under conformal
composition, listed once per reading with their spans' projections
(_face_list), for cone_faces and the Monte Carlo cells alike.  Every
projection onto a subspace cut out by some of the rows (a face span, or
the lineality space) comes from one cache keyed by the sorted lines of
those rows (_complement), so all recession cones of one arrangement
project once per flat; the cache holds each projection as an integer
matrix over its denominator.

Each face's recession cone is profiled once, by intrinsic_element, into
the table IntrinsicElement.profiles (face signs -> ConicVolumeProfile).
Klivans-Swartz reads the chamber entries of that table
(klivans_swartz_from_profiles) and the multiplicativity check evaluates the
element built from it, so neither samples a cone again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import acos, pi, sqrt

from .geometry import (
    _cone_rays,
    _covectors,
    _same_arrangement,
    recession_cone,
)
from .linalg import _idot, _integer_row, _primitive, matrix_rank, projection_matrix
from .scalars import Poly
from .tits import TitsElement, _deviation, multiply

DEFAULT_SAMPLES = 10**6
DEFAULT_SEED = 0
CHUNK = 1 << 14
_SCALE = 1 << 12
_BIG = 1 << 62
# absolute slack of every float comparison, on top of the MC half-widths
FLOAT_FLOOR = 1e-9


class ProjectionMismatch(RuntimeError):
    """Monte Carlo samples that do not lie in exactly one Moreau cell of
    the cone's faces."""


class PolygonMismatch(RuntimeError):
    """A cone of essential dimension 3 whose rays do not each lie on
    exactly two facets."""


@dataclass(frozen=True)
class ConeFace:
    active: frozenset
    dim: int


def _complement(lines, n):
    """(dim, den, den P) for the subspace of R^n orthogonal to every line
    (geometry._cone_rays' lines of rows; None, a zero row's, is skipped):
    dim its dimension and P its exact orthogonal projection matrix, held as
    the integer matrix den P over P's denominator den, cached by the sorted
    distinct lines."""
    return _line_complement(tuple(sorted(set(lines) - {None})), n)


@lru_cache(maxsize=1024)
def _line_complement(lines, n):
    p = projection_matrix(list(lines), n)  # onto the span of the lines
    # I - P projects onto the complement; scaled to den (I - P), its trace
    # is den times the complement's dimension
    eye_minus_p = [(i == j) - c for i, row in enumerate(p) for j, c in enumerate(row)]
    ints, den = _integer_row(eye_minus_p)
    m = tuple([tuple(ints[i : i + n]) for i in range(0, n * n, n)])
    return sum(ints[:: n + 1]) // den, den, m


def _face_list(cone):
    """(rays, faces) from one reading of the cone's rows
    (geometry._cone_rays): its rays, and each face as
    (active, dim, den, m), sorted largest active set first.

    The faces are the covectors of the cone's own rows: the closure of its
    rays under conformal composition, from the zero covector
    (geometry._covectors).  A face's active set is where its covector is 0
    among the inequalities, and its span is orthogonal to the lines of the
    rows where it is 0, the equalities and the active rows; dim is the
    span's dimension and m = den P_F its projection (_complement).
    """
    lines, rays = _cone_rays(cone)
    neq = len(cone.equalities)
    faces = []
    for p, _ in _covectors(rays, len(lines), [(0, 0)]):
        zero = [j for j in range(len(lines)) if not p >> j & 1]
        active = frozenset([j - neq for j in zero if j >= neq])
        faces.append((active, *_complement([lines[j] for j in zero], cone.dim)))
    faces.sort(key=lambda f: (-len(f[0]), sorted(f[0])))
    return rays, faces


def cone_faces(cone):
    """All faces of the cone, each with its exact active set and the
    dimension of its span, sorted largest active set first (_face_list).
    """
    return [ConeFace(active=a, dim=dim) for a, dim, _, _ in _face_list(cone)[1]]


@dataclass(frozen=True)
class ConicVolumeProfile:
    """Intrinsic volumes v_0..v_n of a cone in R^n."""

    values: tuple
    half_width: tuple
    method: str
    samples: int | None = None
    seed: int | None = None

    def essential_values(self, lineality_dim):
        """v_l..v_n for a lineality space of dimension l: the profile of
        the cone modulo it.  Public API; the library reads values."""
        return self.values[lineality_dim:]

    def total(self):
        return sum(self.values)

    def euler_alternation(self):
        return sum(((-1) ** k) * v for k, v in enumerate(self.values))


def _angle(uv, uu, vv, scale):
    """Angle between two vectors, from their dot product uv and squared
    norms uu, vv, integers over a common scale; the float step is this
    final arccos.  int / int is correctly rounded, as float(Fraction) is."""
    cosine = (uv / scale) / sqrt((uu / scale) * (vv / scale))
    return acos(max(-1.0, min(1.0, cosine)))


def try_exact_profile(cone):
    """Exact profile when the essential dimension is at most 3, else None.

    The rays (geometry._cone_rays), projected exactly off the
    lineality space L, span the essential space; every angle comes from
    their Gram matrix G.  With the cached projection onto L as an integer
    matrix M over den, the projected rays den u - M u and den^2 G are
    integers, and each cosine is one correctly rounded division by den^2.
    With l = dim L, a wedge of angle t has
    v_l = 1/2 - t/2pi, v_(l+1) = 1/2, v_(l+2) = t/2pi.  In essential
    dimension 3 the rays are the k vertices of a spherical polygon, and two
    are adjacent when a non-implicit inequality vanishes on both (each ray
    needs two neighbours, else PolygonMismatch).  With facet angles t_i
    between adjacent rays and interior angles d_i at the rays (pi minus the
    angle between the two facets' inward normals; spherical law of cosines
    on G), Girard's theorem and McMullen's angle sums (Amelunxen, Lotz,
    McCoy and Tropp, "Living on the edge") give v_(l+3) =
    (sum d_i - (k - 2)pi)/4pi, v_(l+2) = sum t_i/4pi,
    v_(l+1) = sum (pi - d_i)/4pi and v_l = (2pi - sum t_i)/4pi.
    """
    n = cone.dim
    lines, rays = _cone_rays(cone)
    ell, den, lin = _complement(lines, n)
    us = [v for _, _, v in rays]
    # the rays projected off L, times den; lin = 0 and den = 1 when ell = 0
    if ell:
        us = [[den * c - _idot(row, u) for c, row in zip(u, lin)] for u in us]
    ess = matrix_rank(us)
    if ess > 3:
        return None
    scale = den * den  # g is the Gram matrix of the projected rays times it
    g = [[_idot(u, w) for w in us] for u in us]
    values = [0.0] * (n + 1)
    if ess == 0:
        values[ell] = 1.0
    elif ess == 1:
        values[ell] = values[ell + 1] = 0.5
    elif ess == 2:
        frac = _angle(g[0][1], g[0][0], g[1][1], scale) / (2 * pi)
        values[ell : ell + 3] = [0.5 - frac, 0.5, frac]
    else:
        facets = 0
        for p, _, _ in rays:
            facets |= p
        k = len(rays)
        theta = delta = 0.0
        for i, (p, _, _) in enumerate(rays):
            nbrs = [
                j
                for j, (q, _, _) in enumerate(rays)
                if j != i and facets & ~(p | q)
            ]
            if len(nbrs) != 2:
                raise PolygonMismatch(
                    f"ray {i} of a cone of essential dimension 3 has "
                    f"{len(nbrs)} neighbouring rays, not 2"
                )
            j, m = nbrs
            theta += sum(
                _angle(g[i][x], g[i][i], g[x][x], scale) for x in nbrs if x > i
            )
            delta += _angle(
                g[i][i] * g[j][m] - g[i][j] * g[i][m],
                g[i][i] * g[j][j] - g[i][j] ** 2,
                g[i][i] * g[m][m] - g[i][m] ** 2,
                scale * scale,
            )
        values[ell : ell + 4] = [
            (2 * pi - theta) / (4 * pi),
            (k * pi - delta) / (4 * pi),
            theta / (4 * pi),
            (delta - (k - 2) * pi) / (4 * pi),
        ]
    return ConicVolumeProfile(
        values=tuple(values),
        half_width=(0.0,) * len(values),
        method="exact",
    )


def _cells(cone):
    """The Moreau cell of each face F of the cone, as (dim F, inner, outer)
    with primitive integer rows: x lies in the cell exactly when P_F x is in
    the relative interior of F, r . x > 0 for each inner row P_F a (a an
    inequality not active on F), and x - P_F x is in the normal cone at F,
    r . x <= 0 for each outer row v - P_F v (v a ray outside span F).  The
    cells partition space: the nearest point of x in the cone is P_F x for
    the one face F whose cell holds x.  The rows are integer products with
    m = den P_F, from the face list (_face_list)."""
    rays, faces = _face_list(cone)
    cells = []
    for active, dim, den, m in faces:
        inner = {
            _primitive([_idot(row, a) for row in m])
            for i, a in enumerate(cone.inequalities)
            if i not in active
        }
        outer = {
            _primitive([den * c - _idot(row, v) for c, row in zip(v, m)])
            for _, _, v in rays
        }
        outer.discard((0,) * cone.dim)
        cells.append((dim, sorted(inner), sorted(outer)))
    return cells


def _mc_profile(cone, samples, seed):
    # numpy is imported here, the only place that uses it, so that commands
    # which never sample do not pay its import time and memory
    import numpy as np

    n = cone.dim
    cells = _cells(cone)
    # |r . x| <= |r|_1 max|x|: a chunk whose bound reaches _BIG works in
    # Python ints (object arrays), every other chunk in int64
    wide = max(
        (sum(map(abs, r)) for _, inner, outer in cells for r in inner + outer),
        default=0,
    )

    arrays = {}
    counts = np.zeros(n + 1, dtype=np.int64)
    done = 0
    chunk_index = 0
    while done < samples:
        cnt = min(CHUNK, samples - done)
        rng = np.random.default_rng([seed, chunk_index])
        x = rng.standard_normal((cnt, n))
        ints = np.rint(x * _SCALE).astype(np.int64)
        small = wide * max(int(np.abs(ints).max()), 1) < _BIG
        dtype = np.int64 if small else object
        if dtype not in arrays:
            # a face with no test rows still needs an (0, n) matrix
            arrays[dtype] = [
                (dim, len(i), np.array(i + o, dtype).reshape(-1, n))
                for dim, i, o in cells
            ]
        ints = ints.astype(dtype, copy=False)
        hits = np.zeros(cnt, dtype=np.int64)
        for dim, k, rows in arrays[dtype]:
            y = ints @ rows.T
            inside = (y[:, :k] > 0).all(axis=1) & (y[:, k:] <= 0).all(axis=1)
            hits += inside
            counts[dim] += np.count_nonzero(inside)
        stray = int(np.count_nonzero(hits != 1))
        if stray:
            raise ProjectionMismatch(
                f"{stray} of {cnt} samples lie in no Moreau cell or in "
                "several: the face list is not the cone's"
            )
        done += cnt
        chunk_index += 1

    return tuple([float(c) / samples for c in counts])


def conic_intrinsic_volumes(
    cone, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, force_mc=False
):
    """Intrinsic volume profile of a homogeneous cone.

    Cones of essential dimension <= 3 are evaluated exactly unless force_mc
    is set, from the angles between their extreme rays (Girard's theorem
    and McMullen's angle sums, see try_exact_profile); everything else
    falls to the seeded Monte Carlo path with a conservative 3-sigma
    half-width of 1.5/sqrt(samples) per entry.  That path gives each
    sample its face by exact sign tests on the face's Moreau cell (see
    _cells), so the counts depend only on (samples, seed); the seed is a
    non-negative integer, as numpy's seed sequences require.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if seed < 0:
        raise ValueError(f"the seed must be non-negative, got {seed}")
    if not force_mc:
        exact = try_exact_profile(cone)
        if exact is not None:
            return exact
    values = _mc_profile(cone, samples, seed)
    hw = 3 * 0.5 / sqrt(samples)
    return ConicVolumeProfile(
        values=values,
        half_width=(hw,) * len(values),
        method="monte-carlo",
        samples=samples,
        seed=seed,
    )


def face_intrinsic_volumes(arr, face, **config):
    """Profile of the recession cone of an arrangement face."""
    return conic_intrinsic_volumes(recession_cone(arr, face), **config)


@dataclass(frozen=True)
class IntrinsicElement:
    """Volume-weighted element; characteristic for its polynomial parameter.

    The coefficient of a face F is
    (-1)^dim(F) * sum_k (-1)^k v_k(F) t^(k-d), a real polynomial of degree
    at most rank(F), built from the intrinsic volumes of F's recession cone.
    """

    element: TitsElement
    profiles: dict

    def character_tolerance(self):
        """Conservative bound for character residuals, from MC half-widths."""
        return FLOAT_FLOOR + sum(
            max(p.half_width) for p in self.profiles.values()
        )


def intrinsic_element(
    arr, faces, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, force_mc=False
):
    _same_arrangement(arr, faces)
    d = faces.min_dim
    profiles = {}
    coeffs = {}
    for f in faces:
        prof = face_intrinsic_volumes(
            arr, f, samples=samples, seed=seed, force_mc=force_mc
        )
        profiles[f.signs] = prof
        sign = (-1) ** f.dim
        cs = [
            sign * ((-1) ** k) * prof.values[k] for k in range(d, f.dim + 1)
        ]
        coeffs[f.signs] = Poly(cs)
    return IntrinsicElement(
        element=TitsElement(arr, coeffs), profiles=profiles
    )


@dataclass(frozen=True)
class KlivansSwartzReport:
    """chi reconstructed from chamber volumes vs the lattice computation."""

    estimate: tuple
    exact: tuple
    deviations: tuple
    half_widths: tuple

    def ok(self, tol=None):
        if tol is not None:
            return all(d <= tol for d in self.deviations)
        return all(
            d <= hw + FLOAT_FLOOR
            for d, hw in zip(self.deviations, self.half_widths)
        )


def klivans_swartz_from_profiles(faces, lattice, profiles):
    """Coefficients of chi from the chamber entries of a profile table
    (face signs -> ConicVolumeProfile):

    [t^j] chi = (-1)^(rank - j) * sum over chambers C of v_(j+d)(C).
    """
    _same_arrangement(faces.arr, lattice)
    d = lattice.d
    r = lattice.rank_top()
    sums = [0.0] * (r + 1)
    hw = [0.0] * (r + 1)
    for c in faces.chambers():
        prof = profiles[c.signs]
        for j in range(r + 1):
            sums[j] += prof.values[j + d]
            hw[j] += prof.half_width[j + d]
    estimate = tuple([((-1) ** (r - j)) * sums[j] for j in range(r + 1)])
    chi = lattice.charpoly()
    exact = tuple([float(chi.coefficient(j)) for j in range(r + 1)])
    deviations = tuple([abs(a - b) for a, b in zip(estimate, exact)])
    return KlivansSwartzReport(
        estimate=estimate,
        exact=exact,
        deviations=tuple(deviations),
        half_widths=tuple(hw),
    )


def klivans_swartz_charpoly(
    faces, lattice, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, force_mc=False
):
    """Klivans-Swartz from freshly profiled chamber cones."""
    _same_arrangement(faces.arr, lattice)
    profiles = {
        c.signs: face_intrinsic_volumes(
            faces.arr, c, samples=samples, seed=seed, force_mc=force_mc
        )
        for c in faces.chambers()
    }
    return klivans_swartz_from_profiles(faces, lattice, profiles)


@dataclass(frozen=True)
class ProductReport:
    s: float
    t: float
    max_deviation: float
    tolerance: float

    @property
    def ok(self):
        return self.max_deviation <= self.tolerance


def verify_intrinsic_product(faces, nu, s, t):
    """Numeric check of multiplicativity: nu_s nu_t = nu_(s t).

    All three elements come from the one profile table of nu, so the
    comparison isolates the algebra.  The tolerance scales the summed MC
    half-widths by a crude bound on the coefficient growth of the product.
    """
    ev = nu.element.evaluate
    left = multiply(faces, ev(float(s)), ev(float(t)))
    dev = _deviation(left, ev(float(s) * float(t)))
    growth = (max(1.0, abs(float(s))) * max(1.0, abs(float(t)))) ** max(
        (f.dim for f in faces), default=1
    )
    tol = FLOAT_FLOOR + growth * len(faces) * sum(
        max(p.half_width) for p in nu.profiles.values()
    )
    return ProductReport(
        s=float(s), t=float(t), max_deviation=dev, tolerance=tol
    )
