"""Independent reference implementations that the tests compare against.

`enumerate_faces_lp` is the incremental-insertion enumerator with one exact
LP per genuine split, and `_essentially_bounded` decides boundedness with
one LP; both are kept as they were before face enumeration moved to the
cocircuit closure in `titskit.geometry`.  `witness_support_closure` is the
support closure computed from a face's witness and hull basis.

`build_lattice_rank` and `deletion_lattice_rank` give each flat the
dimension of the intersection of its hyperplanes by exact rank, and d the
dimension of the lineality space; they are kept as they were before the
flat lattice was built from the zero sets and dimensions of the faces in
`titskit.lattice`.

`cone_faces_lp` (one LP per subset of inequalities), `implicit_equalities_lp`
(one LP per inequality) and `project_to_cone_lp` (whose KKT check solves
for the active-set multipliers with an LP) are kept as they were before
cone faces moved to the covectors of the cone's rows in
`titskit.intrinsic`.
"""

from __future__ import annotations

from fractions import Fraction

from titskit.geometry import Arrangement, Face, FaceSet, lineality_space
from titskit.intrinsic import ConeFace
from titskit.lattice import Flat, FlatLattice, IndexOutOfRange, support_closure
from titskit.linalg import dot, matrix_rank, matvec, nullspace, projection_matrix
from titskit.lp import lp_feasible


def _reduce_basis(basis, rates):
    """Intersect span(basis) with the kernel of the functional whose values
    on the basis are `rates` (some rate nonzero)."""
    p = next(i for i, r in enumerate(rates) if r != 0)
    vp, rp = basis[p], rates[p]
    out = []
    for i, (v, r) in enumerate(zip(basis, rates)):
        if i == p:
            continue
        out.append(tuple(a - (r / rp) * b for a, b in zip(v, vp)))
    return out


def _step_witness(arr, signs, witness, direction):
    """Move from a relative-interior witness along a hull direction, staying
    strictly inside every already-assigned nonzero sign."""
    eps = None
    for j, s in enumerate(signs):
        if s == 0:
            continue
        margin = s * arr.value(j, witness)
        rate = s * dot(arr.hyperplanes[j].normal, direction)
        if rate < 0:
            bound = margin / (-rate)
            eps = bound if eps is None else min(eps, bound)
    eps = Fraction(1) if eps is None else eps / 2
    return tuple(w + eps * d for w, d in zip(witness, direction))


def _split_constraints(arr, signs, upto):
    eqs, stricts = [], []
    for j in range(upto):
        h = arr.hyperplanes[j]
        s = signs[j]
        if s == 0:
            eqs.append((h.normal, h.offset))
        else:
            stricts.append(
                (tuple(s * c for c in h.normal), s * h.offset)
            )
    return eqs, stricts


def enumerate_faces_lp(arr):
    """All faces of the arrangement, by incremental hyperplane insertion."""
    n = arr.dim
    origin = tuple(Fraction(0) for _ in range(n))
    identity = [
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    ]
    state = [((), origin, identity)]

    for i, h in enumerate(arr.hyperplanes):
        new_state = []
        for signs, witness, basis in state:
            val = h.value(witness)
            sigma = 0 if val == 0 else (1 if val > 0 else -1)
            rates = [dot(h.normal, v) for v in basis]
            crosses_hull = any(r != 0 for r in rates)

            if not crosses_hull:
                # The hyperplane is constant on the affine hull of the face.
                new_state.append((signs + (sigma,), witness, basis))
                continue

            if sigma == 0:
                # Witness sits on the hyperplane and the hull crosses it, so
                # both open sides are nonempty; walk along a hull direction.
                p = next(k for k, r in enumerate(rates) if r != 0)
                v = basis[p] if rates[p] > 0 else tuple(-c for c in basis[p])
                w_plus = _step_witness(arr, signs, witness, v)
                w_minus = _step_witness(
                    arr, signs, witness, tuple(-c for c in v)
                )
                sub = _reduce_basis(basis, rates)
                new_state.append((signs + (1,), w_plus, basis))
                new_state.append((signs + (0,), witness, sub))
                new_state.append((signs + (-1,), w_minus, basis))
                continue

            eqs, stricts = _split_constraints(arr, signs, i)
            stricts.append(
                (tuple(-sigma * c for c in h.normal), -sigma * h.offset)
            )
            other = lp_feasible(n, equalities=eqs, strict_inequalities=stricts)
            if other is None:
                new_state.append((signs + (sigma,), witness, basis))
                continue
            # Both strict sides are inhabited; the zero part is the exact
            # segment crossing between the two witnesses.
            val2 = h.value(other)
            lam = val / (val - val2)
            crossing = tuple(
                a + lam * (b - a) for a, b in zip(witness, other)
            )
            sub = _reduce_basis(basis, rates)
            new_state.append((signs + (sigma,), witness, basis))
            new_state.append((signs + (0,), crossing, sub))
            new_state.append((signs + (-sigma,), other, basis))
        state = new_state

    faces = []
    for signs, witness, basis in state:
        faces.append(
            Face(
                signs=signs,
                witness=witness,
                dim=len(basis),
                essentially_bounded=_essentially_bounded(arr, signs),
                hull_basis=tuple(basis),
            )
        )
    fs = FaceSet(arr, faces)
    assert all(arr.sign_vector(f.witness) == f.signs for f in fs)
    return fs


def _essentially_bounded(arr, signs):
    """Whether the recession cone of the face is a linear subspace."""
    nonzero = [j for j, s in enumerate(signs) if s != 0]
    if not nonzero:
        return True
    n = arr.dim
    eqs = [
        (arr.hyperplanes[j].normal, Fraction(0))
        for j, s in enumerate(signs)
        if s == 0
    ]
    weaks = [
        (tuple(signs[j] * c for c in arr.hyperplanes[j].normal), Fraction(0))
        for j in nonzero
    ]
    total = [Fraction(0)] * n
    for coeffs, _ in weaks:
        total = [t + c for t, c in zip(total, coeffs)]
    weaks.append((tuple(total), Fraction(1)))
    return lp_feasible(n, equalities=eqs, weak_inequalities=weaks) is None


def witness_support_closure(arr, face):
    """Indices of all hyperplanes containing the affine hull of the face,
    from its witness and hull basis."""
    out = []
    for j, h in enumerate(arr.hyperplanes):
        if h.value(face.witness) != 0:
            continue
        if all(dot(h.normal, v) == 0 for v in face.hull_basis):
            out.append(j)
    return frozenset(out)


def _flats_from_closures(arr, closures, d):
    flats = []
    for c in sorted(closures, key=lambda c: (len(c), sorted(c))):
        normals = [arr.hyperplanes[j].normal for j in c]
        dim = arr.dim - matrix_rank(normals)
        flats.append(Flat(closure=c, dim=dim, rank=dim - d))
    flats.sort(key=lambda f: (f.rank, sorted(f.closure)))
    return flats


def build_lattice_rank(arr, faces):
    """Flat lattice of an arrangement, from the supports of its faces."""
    d = len(lineality_space(arr))
    support_of = {f.signs: support_closure(arr, f) for f in faces}
    closures = set(support_of.values())
    flats = _flats_from_closures(arr, closures, d)
    index = {f.closure: i for i, f in enumerate(flats)}
    face_support = {signs: index[c] for signs, c in support_of.items()}
    return FlatLattice(arr, flats, face_support)


def deletion_lattice_rank(arr, lattice, h):
    """Flat lattice of the arrangement with hyperplane h removed.

    Flats of the deletion are exactly the flats of the full arrangement that
    are still cut out by their closure minus h.  Returns
    (deleted_arrangement, its_lattice); the lattice has no face supports.
    """
    if not 0 <= h < arr.m:
        raise IndexOutOfRange(f"hyperplane index {h} out of range")
    keep = [i for i in range(arr.m) if i != h]
    reindex = {old: new for new, old in enumerate(keep)}
    sub = Arrangement(
        dim=arr.dim,
        hyperplanes=tuple(arr.hyperplanes[i] for i in keep),
        kind="custom",
        params={"deleted": h, "from": arr.kind},
    )
    closures = set()
    for f in lattice.flats:
        trimmed = f.closure - {h}
        normals = [arr.hyperplanes[j].normal for j in trimmed]
        if arr.dim - matrix_rank(normals) == f.dim:
            closures.add(frozenset(reindex[j] for j in trimmed))
    d = len(lineality_space(sub))
    flats = _flats_from_closures(sub, closures, d)
    return sub, FlatLattice(sub, flats)


def cone_faces_lp(cone):
    """All faces of the cone, each with its exact active set.

    A subset S of inequality indices defines a face when the system
    {equalities, a_i x = 0 for i in S, a_j x > 0 for j outside S} is
    feasible; the strictness pins S to the full active set, so faces come
    out without duplicates.  Sorted largest active set first.
    """
    n = cone.dim
    idx = range(len(cone.inequalities))
    eq_rows = [(e, Fraction(0)) for e in cone.equalities]
    out = []
    for mask in range(1 << len(cone.inequalities)):
        subset = [i for i in idx if mask >> i & 1]
        eqs = eq_rows + [(cone.inequalities[i], Fraction(0)) for i in subset]
        stricts = [
            (cone.inequalities[j], Fraction(0))
            for j in idx
            if not mask >> j & 1
        ]
        if lp_feasible(n, equalities=eqs, strict_inequalities=stricts) is None:
            continue
        span_rows = list(cone.equalities) + [
            cone.inequalities[i] for i in subset
        ]
        basis = nullspace(span_rows, n)
        proj = projection_matrix(basis, n)
        out.append(
            ConeFace(
                active=frozenset(subset),
                dim=len(basis),
                proj=tuple(tuple(row) for row in proj),
            )
        )
    out.sort(key=lambda f: (-len(f.active), sorted(f.active)))
    return out


def project_to_cone_lp(cone, point, faces=None):
    """Exact nearest point of the cone, with the face dimension it lies in.

    The projection is the feasible candidate of minimal distance among the
    orthogonal projections onto the spans of all faces; ties share the same
    point and the largest active set names the face containing it in its
    relative interior.  The characterizing conditions (membership,
    orthogonality to the face span, and the residual lying in the outward
    normal cone) are all verified before returning.
    """
    p = tuple(Fraction(c) for c in point)
    if faces is None:
        faces = cone_faces_lp(cone)
    best = None
    for face in faces:
        q = matvec(face.proj, p)
        if any(dot(a, q) < 0 for a in cone.inequalities):
            continue
        dist = sum((a - b) ** 2 for a, b in zip(p, q))
        if best is None or dist < best[0]:
            best = (dist, face, q)
    _, face, q = best
    residual = tuple(a - b for a, b in zip(p, q))
    assert all(c == 0 for c in matvec(face.proj, residual))
    assert all(dot(e, q) == 0 for e in cone.equalities)
    nvars = len(cone.equalities) + len(face.active)
    active = sorted(face.active)
    coeff_rows = []
    for k in range(cone.dim):
        row = [Fraction(e[k]) for e in cone.equalities]
        row += [Fraction(-cone.inequalities[i][k]) for i in active]
        coeff_rows.append((row, residual[k]))
    lam_rows = []
    for j in range(len(active)):
        lam = [Fraction(0)] * nvars
        lam[len(cone.equalities) + j] = Fraction(1)
        lam_rows.append((lam, Fraction(0)))
    assert (
        nvars == 0
        and all(c == 0 for c in residual)
        or lp_feasible(nvars, equalities=coeff_rows, weak_inequalities=lam_rows)
        is not None
    )
    return q, face.dim


def implicit_equalities_lp(cone):
    """Inequality indices that hold with equality on the whole cone."""
    n = cone.dim
    eqs = [(e, Fraction(0)) for e in cone.equalities]
    weaks = [(a, Fraction(0)) for a in cone.inequalities]
    out = set()
    for i, a in enumerate(cone.inequalities):
        probe = weaks + [(a, Fraction(1))]
        if lp_feasible(n, equalities=eqs, weak_inequalities=probe) is None:
            out.add(i)
    return out
