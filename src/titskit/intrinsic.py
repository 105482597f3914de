"""Conic intrinsic volumes and the volume-weighted characteristic element.

The intrinsic volume v_k of a polyhedral cone C is the Gaussian measure of
the set of points whose nearest point in C lies in a k-dimensional face.
Two evaluation paths:

* exact, when the cone has essential dimension at most three (subspaces,
  rays, planar wedges and spherical polygons modulo lineality): the angles
  between the exact extreme rays give the wedge's v_k and, by Girard's
  theorem and McMullen's angle sums, the polygon's; floats enter only at
  each arccos (try_exact_profile);
* Monte Carlo otherwise.  Gaussian samples are rationalized to dyadic
  rationals, so nearest-point classification is exact integer arithmetic:
  the projection matrices onto the spans of all cone faces are scaled to a
  common integer denominator, each sample picks the feasible candidate at
  minimal distance, and ties resolve to the largest active set, which is
  the face whose relative interior actually contains the projection.
  Chunked substreams keyed by (seed, chunk index) make runs reproducible
  bit for bit regardless of execution order.

A cone's faces and rays come from the covectors of its own rows, not from
an LP per subset of inequalities: the rays are the cocircuits that are 0 on
the equalities and nowhere negative, and the faces are their closure under
composition (geometry._cone_covectors).

Each face's recession cone is profiled once, by intrinsic_element, into
the table IntrinsicElement.profiles (face signs -> ConicVolumeProfile).
Klivans-Swartz reads the chamber entries of that table
(klivans_swartz_from_profiles) and the multiplicativity check evaluates the
element built from it, so neither samples a cone again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import acos, lcm, pi, sqrt

from .geometry import _cone_covectors, recession_cone
from .linalg import (
    common_denominator,
    dot,
    matrix_rank,
    matvec,
    nullspace,
    projection_matrix,
)
from .scalars import Poly
from .tits import TitsElement, multiply

DEFAULT_SAMPLES = 10**6
DEFAULT_SEED = 0
CHUNK = 1 << 14
_SCALE = 1 << 12
_BIG = 1 << 62
_FLOAT_FLOOR = 1e-9


class ProjectionMismatch(RuntimeError):
    """A computed nearest point that fails the exact optimality conditions."""


class PolygonMismatch(RuntimeError):
    """A cone of essential dimension 3 whose rays do not each lie on
    exactly two facets."""


@dataclass(frozen=True)
class ConeFace:
    active: frozenset
    dim: int
    proj: tuple  # n x n Fraction matrix, orthogonal projection onto the span


def cone_faces(cone):
    """All faces of the cone, each with its exact active set.

    The faces are the covectors of the cone's own rows, closed from the
    rays (geometry._cone_covectors); a face's active set is where its
    covector is 0.  Sorted largest active set first.
    """
    n = cone.dim
    neq = len(cone.equalities)
    _, covectors = _cone_covectors(cone)
    out = []
    for p, _ in covectors:
        active = [
            i for i in range(len(cone.inequalities)) if not p >> (neq + i) & 1
        ]
        span_rows = list(cone.equalities) + [
            cone.inequalities[i] for i in active
        ]
        basis = nullspace(span_rows, n)
        proj = projection_matrix(basis, n)
        out.append(
            ConeFace(
                active=frozenset(active),
                dim=len(basis),
                proj=tuple(tuple(row) for row in proj),
            )
        )
    out.sort(key=lambda f: (-len(f.active), sorted(f.active)))
    return out


def project_to_cone(cone, point, faces=None):
    """Exact nearest point of the cone, with the face dimension it lies in.

    The projection is the feasible candidate of minimal distance among the
    orthogonal projections onto the spans of all faces; ties share the same
    point and the largest active set names the face containing it in its
    relative interior.  Before returning, ProjectionMismatch is raised
    unless the point lies in the relative interior of that face, the
    residual is orthogonal to the face's span, and the residual lies in the
    normal cone at the point: orthogonal to the point and to the lineality
    space, and nonpositive on every ray.
    """
    p = tuple(Fraction(c) for c in point)
    if faces is None:
        faces = cone_faces(cone)
    best = None
    for face in faces:
        q = matvec(face.proj, p)
        if any(dot(a, q) < 0 for a in cone.inequalities):
            continue
        dist = sum((a - b) ** 2 for a, b in zip(p, q))
        if best is None or dist < best[0]:
            best = (dist, face, q)
    if best is None:
        raise ProjectionMismatch("no face projects into the cone")
    _, face, q = best
    active = sorted(face.active)
    zeros = [i for i, a in enumerate(cone.inequalities) if dot(a, q) == 0]
    if zeros != active or any(dot(e, q) for e in cone.equalities):
        raise ProjectionMismatch(
            f"nearest point is not inside the face with active set {active}"
        )
    residual = tuple(a - b for a, b in zip(p, q))
    if any(matvec(face.proj, residual)):
        raise ProjectionMismatch("residual is not orthogonal to the face")
    rays, _ = _cone_covectors(cone)
    if (
        dot(residual, q)
        or any(dot(residual, v) for v in _lineality_basis(cone))
        or any(dot(residual, v) > 0 for _, _, v in rays)
    ):
        raise ProjectionMismatch("residual is not in the normal cone")
    return q, face.dim


@dataclass(frozen=True)
class ConicVolumeProfile:
    """Intrinsic volumes v_0..v_n of a cone in R^n."""

    values: tuple
    half_width: tuple
    method: str
    samples: int | None = None
    seed: int | None = None

    def essential_values(self, lineality_dim):
        return self.values[lineality_dim:]

    def total(self):
        return sum(self.values)

    def euler_alternation(self):
        return sum(((-1) ** k) * v for k, v in enumerate(self.values))


def _lineality_basis(cone):
    rows = list(cone.equalities) + list(cone.inequalities)
    return nullspace(rows, cone.dim)


def _angle(uv, uu, vv):
    """Angle between two vectors, from their exact dot product uv and
    squared norms uu, vv; the float step is this final arccos."""
    cosine = float(uv) / sqrt(float(uu) * float(vv))
    return acos(max(-1.0, min(1.0, cosine)))


def try_exact_profile(cone):
    """Exact profile when the essential dimension is at most 3, else None.

    The rays (geometry._cone_covectors), projected exactly off the
    lineality space L, span the essential space; every angle comes from
    their Gram matrix G.  With l = dim L, a wedge of angle t has
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
    lin = _lineality_basis(cone)
    ell = len(lin)
    rays, _ = _cone_covectors(cone)
    us = [v for _, _, v in rays]
    if lin:
        proj = projection_matrix(lin, n)
        us = [tuple(a - b for a, b in zip(u, matvec(proj, u))) for u in us]
    ess = matrix_rank(us)
    if ess > 3:
        return None
    g = [[dot(u, w) for w in us] for u in us]
    values = [0.0] * (n + 1)
    if ess == 0:
        values[ell] = 1.0
    elif ess == 1:
        values[ell] = values[ell + 1] = 0.5
    elif ess == 2:
        frac = _angle(g[0][1], g[0][0], g[1][1]) / (2 * pi)
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
                _angle(g[i][x], g[i][i], g[x][x]) for x in nbrs if x > i
            )
            delta += _angle(
                g[i][i] * g[j][m] - g[i][j] * g[i][m],
                g[i][i] * g[j][j] - g[i][j] ** 2,
                g[i][i] * g[m][m] - g[i][m] ** 2,
            )
        values[ell : ell + 4] = [
            (2 * pi - theta) / (4 * pi),
            (k * pi - delta) / (4 * pi),
            theta / (4 * pi),
            (delta - (k - 2) * pi) / (4 * pi),
        ]
    return ConicVolumeProfile(
        values=tuple(values),
        half_width=tuple(0.0 for _ in values),
        method="exact",
    )


def _mc_profile(cone, samples, seed):
    # numpy is imported here, the only place that uses it, so that commands
    # which never sample do not pay its import time and memory
    import numpy as np

    n = cone.dim
    faces = cone_faces(cone)
    den = 1
    for f in faces:
        for row in f.proj:
            den = lcm(den, common_denominator(row))
    mats = []
    diffs = []
    for f in faces:
        m = np.array(
            [[int(c * den) for c in row] for row in f.proj], dtype=np.int64
        )
        mats.append(m)
        diffs.append(den * np.eye(n, dtype=np.int64) - m)
    ineq = (
        np.array(cone.inequalities, dtype=np.int64)
        if cone.inequalities
        else None
    )
    dims = np.array([f.dim for f in faces])
    counts = np.zeros(n + 1, dtype=np.int64)
    max_a = int(np.abs(ineq).max()) if ineq is not None else 1

    done = 0
    chunk_index = 0
    while done < samples:
        cnt = min(CHUNK, samples - done)
        rng = np.random.default_rng([seed, chunk_index])
        x = rng.standard_normal((cnt, n))
        ints = np.rint(x * _SCALE)
        bound = int(np.abs(ints).max()) if cnt else 0
        worst = n * (den * bound * (n + 1)) ** 2
        worst = max(worst, n * n * max_a * den * bound)
        ints = ints.astype(np.int64)
        big = _BIG
        if worst >= _BIG:
            # exact squared distances would overflow; box to Python ints
            # and grow the infeasibility sentinel past every real distance
            ints = ints.astype(object)
            big = worst + 1
        dist_rows = []
        for m, dmat in zip(mats, diffs):
            q = ints @ m.T
            if ineq is not None:
                feasible = (q @ ineq.T >= 0).all(axis=1)
            else:
                feasible = np.ones(cnt, dtype=bool)
            delta = ints @ dmat.T
            dist = (delta * delta).sum(axis=1)
            dist_rows.append(np.where(feasible, dist, big))
        winner = np.stack(dist_rows).argmin(axis=0)
        counts += np.bincount(dims[winner], minlength=n + 1)
        done += cnt
        chunk_index += 1

    values = tuple(float(c) / samples for c in counts)
    return values


def conic_intrinsic_volumes(
    cone, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, force_mc=False
):
    """Intrinsic volume profile of a homogeneous cone.

    Cones of essential dimension <= 3 are evaluated exactly unless force_mc
    is set, from the angles between their extreme rays (Girard's theorem
    and McMullen's angle sums, see try_exact_profile); everything else
    falls to the seeded Monte Carlo path with a conservative 3-sigma
    half-width of 1.5/sqrt(samples) per entry.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if not force_mc:
        exact = try_exact_profile(cone)
        if exact is not None:
            return exact
    values = _mc_profile(cone, samples, seed)
    hw = 3 * 0.5 / sqrt(samples)
    return ConicVolumeProfile(
        values=values,
        half_width=tuple(hw for _ in values),
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

    def evaluate(self, value):
        return self.element.evaluate(value)

    def character_tolerance(self):
        """Conservative bound for character residuals, from MC half-widths."""
        return _FLOAT_FLOOR + sum(
            max(p.half_width) for p in self.profiles.values()
        )


def intrinsic_element(
    arr, faces, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, force_mc=False
):
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
            d <= hw + _FLOAT_FLOOR
            for d, hw in zip(self.deviations, self.half_widths)
        )


def klivans_swartz_from_profiles(faces, lattice, profiles):
    """Coefficients of chi from the chamber entries of a profile table
    (face signs -> ConicVolumeProfile):

    [t^j] chi = (-1)^(rank - j) * sum over chambers C of v_(j+d)(C).
    """
    d = lattice.d
    r = lattice.rank_top()
    sums = [0.0] * (r + 1)
    hw = [0.0] * (r + 1)
    for c in faces.chambers():
        prof = profiles[c.signs]
        for j in range(r + 1):
            sums[j] += prof.values[j + d]
            hw[j] += prof.half_width[j + d]
    estimate = tuple(((-1) ** (r - j)) * sums[j] for j in range(r + 1))
    chi = lattice.charpoly()
    exact = tuple(float(chi.coefficient(j)) for j in range(r + 1))
    deviations = tuple(abs(a - b) for a, b in zip(estimate, exact))
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
    left = multiply(faces, nu.evaluate(float(s)), nu.evaluate(float(t)))
    right = nu.evaluate(float(s) * float(t))
    keys = set(left.coeffs) | set(right.coeffs)
    dev = 0.0
    for k in keys:
        dev = max(dev, abs(left.coeffs.get(k, 0.0) - right.coeffs.get(k, 0.0)))
    growth = (max(1.0, abs(float(s))) * max(1.0, abs(float(t)))) ** max(
        (f.dim for f in faces), default=1
    )
    tol = _FLOAT_FLOOR + growth * len(faces) * sum(
        max(p.half_width) for p in nu.profiles.values()
    )
    return ProductReport(
        s=float(s), t=float(t), max_deviation=dev, tolerance=tol
    )
