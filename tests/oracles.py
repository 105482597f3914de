"""Independent reference implementations that the tests compare against.

`enumerate_faces_lp` is the incremental-insertion enumerator with one exact
LP per genuine split, and `_essentially_bounded` decides boundedness with
one LP; both are kept as they were before face enumeration moved to the
cocircuit closure in `titskit.geometry`.  `witness_support_closure` is the
support closure computed from a face's witness and hull basis.

`covectors_all` (the closure of the zero covector under composition with
every cocircuit), `below_scan` (a face's conformal cocircuits by a scan
of all of them) and `enumerate_faces_closure` (each witness checked with
one dot product per row) are face enumeration as it was before
`titskit.geometry` composed only conformally from the cocircuits with
x0 = +, read below-sets from per-row sign masks and checked witnesses by
linearity; `cone_rays_below` and `cone_faces_closure` are the rays and
faces of a cone built the same way.

`build_lattice_rank` and `deletion_lattice_rank` give each flat the
dimension of the intersection of its hyperplanes by exact rank, and d the
dimension of the lineality space; they are kept as they were before the
flat lattice was built from the zero sets and dimensions of the faces in
`titskit.lattice`; their lattices map a face to its flat by its zero set.
`lattice_from_faces` is that construction from (sign vector, dim) pairs,
with an eager face map returned beside the lattice, and
`deletion_lattice_images` builds a deletion's lattice from the images of
every face under the restriction map; both are kept as they were before
`titskit.lattice` read the deletion's lattice off the flats of the full
arrangement.

`verify_deletion_restriction_two_maps` is the deletion-restriction check
as it was before the deletion was built through one restriction map: it
slices entry h off every face for the deletion's lattice, builds a second
deleted arrangement through `subarrangement_map` to push the Takeuchi
and unit elements forward, reads the image's chambers as the sign vectors
with no zero, and returns early when the deletion drops the rank.

`mobius_table` (one `leq` scan per pair of flats) and `validate_graded`
(a cover found by scanning every flat between a pair) are the Mobius
function and gradedness check as they were before `FlatLattice` read both
from one pass over its below- and above-sets; their order is containment of
the flats' closures, read from the flats alone.  `characters_scan` is
chi_X(w) with one scan of the element per flat, as before characters came
from support sums in `titskit.tits`.

`multiply_pairs` is the Tits product as one composition per pair of
faces, as before the product was star-factored in `titskit.tits`;
`flat_multiply_pairs` (one `join` per pair of flats) and `kung_pairs`
(each flat's polynomials evaluated inside the pair loop) are the flat
algebra product and Kung's identity as they were before they read each
operand's above-set and each evaluation once.  `flat_multiply_masks` is
the star-factored flat product keyed by the above-set of each join, as it
was before `titskit.tits` read joins from the lattice's join rows.

`charpoly_under_sum` and `charpoly_over_sum` (a `Poly` sum of mu t^k over
the interval) and `pushforward_sum` (each image coefficient a running sum
of the scalars) are kept as they were before `titskit.lattice` read the
polynomials as integer coefficient lists and `titskit.tits` summed
rational coefficients as integer numerators over one common denominator.
`horner` (Horner's rule on the coefficients' own arithmetic) and
`poly_add` (one `+` per index, a missing coefficient read as int 0) are
`Poly` evaluation and addition as they were before `titskit.scalars`
zipped the two coefficient tuples; the charpoly sums add with `poly_add`,
and `kung_pairs` evaluates with `horner`, so neither leans on `Poly`'s own
arithmetic, and `verify_kung`'s integer numerators are checked against
plain Fraction evaluation.

`cone_faces_lp` (one LP per subset of inequalities), `implicit_equalities_lp`
(one LP per inequality) and `project_to_cone_lp` (whose KKT check solves
for the active-set multipliers with an LP) are kept as they were before
cone faces moved to the covectors of the cone's rows in
`titskit.intrinsic`.  Every oracle that projects, these and the ones
below, computes its own projections and dimensions, sharing no code with
the library's projection cache: `complement_gram` (and `face_projection`
for a face of a cone) is `projection_matrix_gram` (a row-reduced basis,
its Gram matrix, then one solve per column, as
`titskit.linalg.projection_matrix` was before it became one elimination
of [B B^T | B]) over a basis from `nullspace_rref`.

`rref` (Gaussian elimination with exact Fraction pivots), `nullspace_rref`
and `projection_matrix_rref` (both read off that rref), with `matvec`, are
the exact linear algebra as it was before `titskit.linalg` became one
fraction-free elimination on integer rows; `try_exact_profile_fraction`
is the exact cone profile on Fraction vectors, as before
`titskit.intrinsic` projected the rays and formed their Gram matrix in
integers.  `projection_matrix_gram` and `_solve` use this `rref`.

`project_to_cone` (the feasible face projection of least distance, with
its optimality conditions checked exactly) and `mc_profile_nearest` (the
same search for a chunk of dyadic samples at once, over one common
denominator of every face projection) are the nearest-point classifier
and the Monte Carlo kernel as they were before `titskit.intrinsic` gave
each sample its face by sign tests on the faces' Moreau cells.

`canonicalize_gcd`, `line_gcd` and `primitive_gcd` are the hyperplane
normal form, the oriented primitive line of an integer row and the
primitive multiple of an integer row, each with its own gcd, as they were
before `titskit.linalg` held the one integer normal form;
`cone_rays_below` reads its lines from `line_gcd`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import acos, gcd, lcm, pi, sqrt

from titskit import intrinsic
from titskit.elements import DeletionReport
from titskit.geometry import (
    Arrangement,
    ArrangementMismatch,
    Face,
    FaceSet,
    Hyperplane,
    NotAFace,
    WitnessMismatch,
    ZeroNormal,
    _bits,
    _cocircuits,
    _cone_rays,
    _lift,
    _sign_masks,
    lineality_space,
    signs_to_str,
)
from titskit.intrinsic import (
    ConeFace,
    ConicVolumeProfile,
    PolygonMismatch,
    ProjectionMismatch,
    cone_faces,
)
from titskit.lattice import (
    Flat,
    FlatLattice,
    IndexOutOfRange,
    UngradedLattice,
    subarrangement_map,
)
from titskit.linalg import _idot, dot, matrix_rank, nullspace
from titskit.lp import lp_feasible
from titskit.scalars import Poly, T
from titskit.tits import (
    NotClosed,
    TitsElement,
    chamber_sum,
    compose_signs,
    support_sum,
    takeuchi_element,
    unit_element,
)


def common_denominator(fractions_iter):
    return lcm(*[Fraction(f).denominator for f in fractions_iter])


def matvec(m, x):
    return tuple(dot(row, x) for row in m)


def canonicalize_gcd(normal, offset):
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
        normal=tuple([sign * v // g for v in ints]),
        offset=Fraction(offset) * scale,
    )


def line_gcd(row):
    """The primitive integer row spanning the same line, first nonzero
    entry positive."""
    g = gcd(*row)
    lead = next(c for c in row if c)
    return tuple([(c if lead > 0 else -c) // g for c in row])


def primitive_gcd(ints):
    """The integer row divided by the gcd of its entries: the multiple with
    coprime entries, whose sign on any point is the row's."""
    g = gcd(*ints)
    return tuple([c // g for c in ints]) if g else tuple(ints)


def rref(rows):
    """Reduced row echelon form by Gaussian elimination with exact Fraction
    pivots; returns (rows, pivot_columns)."""
    m = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace_rref(rows, n):
    """Basis of {x in Q^n : rows @ x = 0} read off the Fraction rref."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    m, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def projection_matrix_rref(vectors, n):
    """Orthogonal projection onto span(vectors): P = B^T Y for the
    solution Y of (B B^T) Y = B read off the Fraction rref of
    [B B^T | B]."""
    k = len(vectors)
    m, pivots = rref([[dot(u, v) for v in vectors] + list(u) for u in vectors])
    y = [[Fraction(0)] * n for _ in range(k)]
    for r, pc in enumerate(pivots):
        y[pc] = m[r][k:]
    return [
        [dot((b[i] for b in vectors), (row[j] for row in y)) for j in range(n)]
        for i in range(n)
    ]


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
        margin = s * arr.hyperplanes[j].value(witness)
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


def covectors_all(cocircuits, x0):
    """Closure of the zero covector under composition with every
    cocircuit, dropping every covector with x0 = -; x0 past the last row
    drops nothing."""
    x0_neg = 1 << x0
    seen = {(0, 0)}
    work = [(0, 0)]
    while work:
        p, q = work.pop()
        zero = ~(p | q)
        for cp, cq, *_ in cocircuits:
            x = (p | (cp & zero), q | (cq & zero))
            if not x[1] & x0_neg and x not in seen:
                seen.add(x)
                work.append(x)
    return seen


def below_scan(cocircuits, p, q):
    """The cocircuits conformally below (p, q), by a scan of all of them."""
    return [c for c in cocircuits if not (c[0] & ~p or c[1] & ~q)]


def enumerate_faces_closure(arr):
    """All faces of the arrangement from the all-cocircuit closure, each
    witness checked with one dot product per row."""
    m, n = arr.m, arr.dim
    rows = _lift(arr)
    cocircuits = [c[:3] for c in _cocircuits(rows)]
    hulls = {}
    faces = []
    for p, q in covectors_all(cocircuits, m):
        if not p >> m & 1:
            continue
        below = below_scan(cocircuits, p, q)
        y = [sum(col) for col in zip(*[v for _, _, v in below])]
        signs = tuple([(p >> j & 1) - (q >> j & 1) for j in range(m)])
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
                witness=tuple([Fraction(c, y[n]) for c in y[:n]]),
                dim=len(hulls[zero]),
                essentially_bounded=all(cp >> m & 1 for cp, _, _ in below),
                hull_basis=hulls[zero],
            )
        )
    return FaceSet(arr, faces)


def cone_rays_below(cone):
    """(lines, rays) of a homogeneous cone: the line of each row (None for
    a zero row), and the rays modulo its lineality space, as
    (pos, neg, vector) over its rows: the cocircuits of the lines of its
    rows that lie conformally below the cone's sign vector over the lines,
    found by a scan."""
    rows = list(cone.equalities) + list(cone.inequalities)
    n_eq = len(cone.equalities)
    row_lines = []
    signs = {}
    for j, row in enumerate(rows):
        line = line_gcd(row) if any(row) else None
        row_lines.append(line)
        if line is not None:
            s = 0 if j < n_eq else 1 if _idot(row, line) > 0 else -1
            signs[line] = s if signs.get(line, s) == s else 0
    lines = sorted(signs)
    pos = sum(1 << k for k, line in enumerate(lines) if signs[line] > 0)
    neg = sum(1 << k for k, line in enumerate(lines) if signs[line] < 0)
    cocircuits = [c[:3] for c in _cocircuits(lines)] if lines else []
    below = below_scan(cocircuits, pos, neg)
    return row_lines, [_sign_masks(rows, v) + (v,) for _, _, v in below]


def cone_faces_closure(cone):
    """All faces of the cone from the all-cocircuit closure of its rays,
    sorted largest active set first."""
    neq = len(cone.equalities)
    rows = list(cone.equalities) + list(cone.inequalities)
    out = []
    for p, _ in covectors_all(cone_rays_below(cone)[1], len(rows)):
        active = [
            i for i in range(len(cone.inequalities)) if not p >> (neq + i) & 1
        ]
        span = rows[:neq] + [cone.inequalities[i] for i in active]
        dim = len(nullspace_rref(span, cone.dim))
        out.append(ConeFace(active=frozenset(active), dim=dim))
    out.sort(key=lambda f: (-len(f.active), sorted(f.active)))
    return out


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
    closures = {zero_set(f.signs) for f in faces}
    return FlatLattice(arr, _flats_from_closures(arr, closures, d))


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


def zero_set(signs):
    """The hyperplanes on which a sign vector is zero."""
    return frozenset(j for j, s in enumerate(signs) if s == 0)


def lattice_from_faces(arr, dims):
    """Flat lattice from (sign vector, dim) pairs covering the faces, and
    the map of each sign vector to the index of its flat.

    Each flat is a zero set, with the largest dim among the pairs that
    share it; a sign vector may repeat.  d is the smallest flat dim, and
    every sign vector maps to the flat of its zero set.
    """
    zeros = {}
    flat_dim = {}
    for signs, dim in dims:
        c = zero_set(signs)
        zeros[signs] = c
        flat_dim[c] = max(dim, flat_dim.get(c, dim))
    d = min(flat_dim.values())
    flats = sorted(
        (Flat(closure=c, dim=dim, rank=dim - d) for c, dim in flat_dim.items()),
        key=lambda f: (f.rank, sorted(f.closure)),
    )
    index = {f.closure: i for i, f in enumerate(flats)}
    return FlatLattice(arr, flats), {s: index[c] for s, c in zeros.items()}


def deletion_lattice_images(arr, lattice, h):
    """Restriction map dropping hyperplane h, the deletion's lattice from
    the images of the faces `lattice` keeps under the map, and its map of
    each image to its flat: a face of the deletion is a union of faces of
    the full arrangement, and its flat has the largest dimension among
    theirs."""
    if not 0 <= h < arr.m:
        raise IndexOutOfRange(f"hyperplane index {h} out of range")
    fmap = subarrangement_map(arr, [i for i in range(arr.m) if i != h])
    dims = ((fmap(f.signs), f.dim) for f in lattice.faces)
    return (fmap, *lattice_from_faces(fmap.target, dims))


def verify_deletion_restriction_two_maps(arr, faces, lattice, h):
    """chi(A) = chi(A minus H) - chi(A restricted to H), and the transport
    of the Takeuchi and unit elements along the deletion map."""
    flat_h = lattice.index_of(frozenset({h}))
    chi_full = lattice.charpoly()
    chi_under = charpoly_under_sum(lattice, flat_h)
    sub = Arrangement(
        dim=arr.dim,
        hyperplanes=tuple(arr.hyperplanes[:h] + arr.hyperplanes[h + 1:]),
        kind="custom",
        params={"deleted": h, "from": arr.kind},
    )
    dlat, _ = lattice_from_faces(
        sub, ((f.signs[:h] + f.signs[h + 1:], f.dim) for f in faces)
    )
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
        image = pushforward_sum(fmap, w)
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


def _leq(flats, y, x):
    return flats[y].closure >= flats[x].closure


def mobius_table(flats):
    """mu(y, x) for every pair y <= x, keyed (y, x)."""
    order = sorted(range(len(flats)), key=lambda i: flats[i].rank)
    table = {}
    for yi in order:
        interval = [x for x in order if _leq(flats, yi, x)]
        table[(yi, yi)] = 1
        for xi in sorted(interval, key=lambda i: flats[i].rank):
            if xi == yi:
                continue
            acc = 0
            for zi in interval:
                if zi != xi and _leq(flats, zi, xi):
                    acc += table[(yi, zi)]
            table[(yi, xi)] = -acc
    return table


def validate_graded(flats):
    """Raise UngradedLattice at the first cover that does not raise rank
    by one."""
    n = len(flats)
    for y in range(n):
        for x in range(n):
            if x == y or not _leq(flats, y, x):
                continue
            covered = not any(
                z != x and z != y and _leq(flats, y, z) and _leq(flats, z, x)
                for z in range(n)
            )
            if covered and flats[x].rank != flats[y].rank + 1:
                raise UngradedLattice(
                    f"cover {y} < {x} jumps rank "
                    f"{flats[y].rank} -> {flats[x].rank}"
                )


def characters_scan(flats, w):
    """chi_X(w) for every flat X: a face is supported at or below X when its
    zero set contains the closure of X."""
    out = []
    for f in flats:
        acc = 0
        for signs, c in w.coeffs.items():
            if all(signs[j] == 0 for j in f.closure):
                acc = acc + c
        out.append(acc)
    return out


def multiply_pairs(faces, w, v):
    """w.v with one sign-vector composition per pair of faces."""
    for s in (*w.coeffs, *v.coeffs):
        if s not in faces:
            raise NotAFace(f"{s} is not a face")
    out = {}
    for fs, cf in w.coeffs.items():
        for gs, cg in v.coeffs.items():
            key = compose_signs(fs, gs)
            out[key] = out.get(key, 0) + cf * cg
    result = TitsElement(faces.arr, out)
    for s in result.coeffs:
        if s not in faces:
            raise NotClosed(f"{s} is missing from the face set")
    return result


def flat_multiply_pairs(lattice, u, v):
    """H_X H_Y = H_{X join Y} with one `join` per pair of flats."""
    out = {}
    for x, cx in u.items():
        if cx == 0:
            continue
        for y, cy in v.items():
            if cy == 0:
                continue
            k = lattice.join(x, y)
            out[k] = out.get(k, 0) + cx * cy
    return {k: c for k, c in out.items() if c != 0}


def flat_multiply_masks(lattice, u, v):
    """H_X H_Y = H_{X join Y}, one push of v per flat of u, each push
    keyed by the above-set of the join: the intersection of the two
    above-sets, whose lowest flat is the join."""
    keys = [x for w in (u, v) for x, c in w.items() if c != 0]
    if keys:
        lattice._checked(min(keys))
        lattice._checked(max(keys))
    above = [sum(1 << y for y in lattice.above(x)) for x in range(len(lattice))]
    source = [(above[y], c) for y, c in v.items() if c != 0]
    pushes = []  # (above-set of x, push of v at x), x increasing
    dead = 0  # the flats above a flat whose push cancelled
    out = {}
    for x, cx in sorted(u.items()):
        if cx == 0 or dead >> x & 1:
            continue
        up = above[x]
        base = next((p for ux, p in reversed(pushes) if ux >> x & 1), source)
        push = {}
        for key, c in base:
            push[up & key] = push.get(up & key, 0) + c
        push = [(key, c) for key, c in push.items() if c != 0]
        if not push:
            dead |= up
            continue
        pushes.append((up, push))
        for key, c in push:
            out[key] = out.get(key, 0) + cx * c
    return {(k & -k).bit_length() - 1: c for k, c in out.items() if c != 0}


def horner(p, x):
    """p(x) by Horner's rule, in whatever arithmetic the coefficients and x
    provide; x may itself be a Poly."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_add(p, q):
    """p + q, one `+` per index up to the longer length; a coefficient
    past the end of the shorter operand reads as int 0."""
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly([(p.coeffs[k] if k < len(p.coeffs) else 0)
                 + (q.coeffs[k] if k < len(q.coeffs) else 0)
                 for k in range(n)])


def charpoly_under_sum(lattice, x):
    """sum_{Y <= x} mu(Y, x) t^rank(Y), as a sum of polynomials."""
    terms = (lattice.mobius(y, x) * T ** lattice.flat(y).rank
             for y in lattice.below(x))
    return reduce(poly_add, terms, Poly())


def charpoly_over_sum(lattice, x):
    """sum_{Y >= x} mu(Y, top) t^(rank(Y) - rank(x)), as a sum of
    polynomials."""
    rx = lattice.flat(x).rank
    top = lattice.top
    terms = (lattice.mobius(y, top) * T ** (lattice.flat(y).rank - rx)
             for y in lattice.above(x))
    return reduce(poly_add, terms, Poly())


def pushforward_sum(fmap, w):
    """Image of an element under a subarrangement restriction map, each
    coefficient a running sum of the element's scalars."""
    if w.arr is not fmap.source:
        raise ArrangementMismatch("the element is not on the map's source")
    out = {}
    for signs, c in w.coeffs.items():
        key = fmap(signs)
        out[key] = out.get(key, 0) + c
    return TitsElement(fmap.target, out)


def kung_pairs(lattice, s, t):
    """(chi(st), the sum over flats, the sum over pairs joining to the top)
    of Kung's identity, evaluating the polynomials inside the loops."""
    s = Fraction(s)
    t = Fraction(t)
    flats = range(len(lattice))
    under = {x: charpoly_under_sum(lattice, x) for x in flats}
    over = {x: charpoly_over_sum(lattice, x) for x in flats}
    flat_sum = sum(
        (t ** lattice.flat(x).rank * horner(under[x], s) * horner(over[x], t)
         for x in flats),
        Fraction(0),
    )
    pair_sum = Fraction(0)
    for x in flats:
        for y in flats:
            if lattice.join(x, y) == lattice.top:
                pair_sum += horner(under[x], s) * horner(under[y], t)
    return horner(lattice.charpoly(), s * t), flat_sum, pair_sum


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
        dim = len(nullspace_rref(span_rows, n))
        out.append(ConeFace(active=frozenset(subset), dim=dim))
    out.sort(key=lambda f: (-len(f.active), sorted(f.active)))
    return out


def _solve(rows, rhs):
    """One exact solution of rows @ x = rhs, or None if inconsistent."""
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = m[r][n]
    return tuple(x)


def projection_matrix_gram(vectors, n):
    """Orthogonal projection onto span(vectors), as an n x n Fraction matrix."""
    red, pivots = rref(vectors) if vectors else ([], [])
    basis = [red[i] for i in range(len(pivots))]
    if not basis:
        return [[Fraction(0)] * n for _ in range(n)]
    k = len(basis)
    gram = [[dot(basis[i], basis[j]) for j in range(k)] for i in range(k)]
    # Solve gram @ Y = B for Y (k x n), then P = B^T @ Y.
    y_cols = []
    for c in range(n):
        rhs = [basis[i][c] for i in range(k)]
        y_cols.append(_solve(gram, rhs))
    p = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            p[i][j] = sum(
                (basis[r][i] * y_cols[j][r] for r in range(k)), Fraction(0)
            )
    return p


@lru_cache(maxsize=1024)
def complement_gram(rows, n):
    """The orthogonal projection onto the subspace of R^n orthogonal to
    every row of the tuple `rows`: projection_matrix_gram over a basis from
    nullspace_rref."""
    return projection_matrix_gram(nullspace_rref(list(rows), n), n)


def face_projection(cone, face):
    """The orthogonal projection onto the span of a face of the cone."""
    active = [cone.inequalities[i] for i in sorted(face.active)]
    return complement_gram(cone.equalities + tuple(active), cone.dim)


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
        q = matvec(face_projection(cone, face), p)
        if any(dot(a, q) < 0 for a in cone.inequalities):
            continue
        dist = sum((a - b) ** 2 for a, b in zip(p, q))
        if best is None or dist < best[0]:
            best = (dist, face, q)
    _, face, q = best
    residual = tuple(a - b for a, b in zip(p, q))
    assert all(c == 0 for c in matvec(face_projection(cone, face), residual))
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


def _angle_fraction(uv, uu, vv):
    cosine = float(uv) / sqrt(float(uu) * float(vv))
    return acos(max(-1.0, min(1.0, cosine)))


def try_exact_profile_fraction(cone):
    """`intrinsic.try_exact_profile` on Fraction vectors: the rays
    projected off the lineality space by the Fraction projection, their
    rank by the Fraction rref, and every angle from their Fraction Gram
    matrix."""
    n = cone.dim
    lin = complement_gram(cone.equalities + cone.inequalities, n)
    ell = len(nullspace_rref(list(cone.equalities + cone.inequalities), n))
    _, rays = _cone_rays(cone)
    us = [v for _, _, v in rays]
    if ell:
        us = [tuple(a - b for a, b in zip(u, matvec(lin, u))) for u in us]
    ess = len(rref(us)[1])
    if ess > 3:
        return None
    g = [[dot(u, w) for w in us] for u in us]
    values = [0.0] * (n + 1)
    if ess == 0:
        values[ell] = 1.0
    elif ess == 1:
        values[ell] = values[ell + 1] = 0.5
    elif ess == 2:
        frac = _angle_fraction(g[0][1], g[0][0], g[1][1]) / (2 * pi)
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
                _angle_fraction(g[i][x], g[i][i], g[x][x])
                for x in nbrs
                if x > i
            )
            delta += _angle_fraction(
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
        q = matvec(face_projection(cone, face), p)
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
    if any(matvec(face_projection(cone, face), residual)):
        raise ProjectionMismatch("residual is not orthogonal to the face")
    lineality = complement_gram(cone.equalities + cone.inequalities, cone.dim)
    if (
        dot(residual, q)
        or any(matvec(lineality, residual))
        or any(dot(residual, v) > 0 for _, _, v in _cone_rays(cone)[1])
    ):
        raise ProjectionMismatch("residual is not in the normal cone")
    return q, face.dim


def mc_profile_nearest(cone, samples, seed):
    """`intrinsic._mc_profile` by nearest-point search: the same chunks of
    dyadic samples, each given the feasible face projection of least
    squared distance, ties to the largest active set.  The projections
    share one common denominator; when it, or the squared distances, pass
    int64 the chunk is computed in Python ints."""
    import numpy as np

    n = cone.dim
    faces = cone_faces(cone)
    projs = [face_projection(cone, f) for f in faces]
    den = 1
    for proj in projs:
        for row in proj:
            den = lcm(den, common_denominator(row))
    dtype = np.int64 if den < intrinsic._BIG else object
    mats = []
    diffs = []
    for proj in projs:
        m = np.array(
            [[int(c * den) for c in row] for row in proj], dtype=dtype
        )
        mats.append(m)
        diffs.append(den * np.eye(n, dtype=dtype) - m)
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
        cnt = min(intrinsic.CHUNK, samples - done)
        rng = np.random.default_rng([seed, chunk_index])
        x = rng.standard_normal((cnt, n))
        ints = np.rint(x * intrinsic._SCALE)
        bound = int(np.abs(ints).max()) if cnt else 0
        worst = n * (den * bound * (n + 1)) ** 2
        worst = max(worst, n * n * max_a * den * bound)
        ints = ints.astype(np.int64)
        big = intrinsic._BIG
        if worst >= intrinsic._BIG:
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
    return tuple(float(c) / samples for c in counts)
