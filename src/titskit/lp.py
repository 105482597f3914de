"""Exact rational linear feasibility via simplex with Bland's rule.

Systems mix equalities, weak inequalities (a.x >= b) and strict inequalities
(a.x > b) over free variables.  Strict constraints are handled by an
auxiliary margin variable: maximize eps subject to a.x - eps >= b for every
strict row and 0 <= eps <= 1; the system is feasible iff the optimum is
positive.  All arithmetic is over Fraction, and Bland's pivoting rule makes
the run deterministic and finite, so the same system always yields the same
witness point.
"""

from __future__ import annotations

from fractions import Fraction
from operator import eq, ge, gt


class DimensionMismatch(ValueError):
    """A constraint vector's length differs from the ambient dimension."""


class WitnessViolation(RuntimeError):
    """A computed witness point that breaks one of its constraints."""


class _Unbounded(RuntimeError):
    pass


def _simplex_max(rows, basis, c):
    """Maximize c.x on a tableau in canonical form (basis columns identity).

    rows[i] has length N+1 with the rhs last; rhs entries stay nonnegative.
    Returns the optimal value; rows and basis are updated in place.
    """
    ncols = len(c)
    rc = list(c)
    val = Fraction(0)
    for i, bv in enumerate(basis):
        f = c[bv]
        if f != 0:
            val += f * rows[i][ncols]
            rc = [rcj - f * aij for rcj, aij in zip(rc, rows[i])]
    while True:
        enter = next((j for j in range(ncols) if rc[j] > 0), None)
        if enter is None:
            return val
        leave = None
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[ncols] / a
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave is None:
            raise _Unbounded("objective unbounded")
        _pivot(rows, basis, leave, enter)
        f = rc[enter]
        val += f * rows[leave][ncols]
        rc = [rcj - f * aij for rcj, aij in zip(rc, rows[leave])]


def _pivot(rows, basis, r, c):
    pv = rows[r][c]
    rows[r] = [x / pv for x in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, prow)]
    basis[r] = c


def lp_feasible(dim, equalities=(), strict_inequalities=(), weak_inequalities=()):
    """Exact feasibility check; returns a witness point or None.

    Constraints are (coeffs, rhs) pairs read as coeffs.x = rhs, > rhs, and
    >= rhs respectively.  The witness satisfies every constraint exactly,
    strict ones strictly.
    """
    eqs = [(list(a), Fraction(b)) for a, b in equalities]
    stricts = [(list(a), Fraction(b)) for a, b in strict_inequalities]
    weaks = [(list(a), Fraction(b)) for a, b in weak_inequalities]
    for a, _ in eqs + stricts + weaks:
        if len(a) != dim:
            raise DimensionMismatch(f"constraint has {len(a)} coefficients, expected {dim}")

    has_eps = bool(stricts)
    col = 2 * dim
    eps_col = None
    if has_eps:
        eps_col = col
        col += 1
    surplus_cols = list(range(col, col + len(stricts) + len(weaks)))
    col += len(stricts) + len(weaks)
    slack_col = None
    if has_eps:
        slack_col = col
        col += 1
    nstruct = col

    def make_row(a, rhs, surplus=None, with_eps=False):
        row = [Fraction(0)] * nstruct
        for k, ak in enumerate(a):
            f = Fraction(ak)
            if f:
                row[k] = f
                row[dim + k] = -f
        if with_eps:
            row[eps_col] = Fraction(-1)
        if surplus is not None:
            row[surplus] = Fraction(-1)
        return row, rhs

    structural = [make_row(a, b) for a, b in eqs]
    si = 0
    for a, b in stricts:
        structural.append(make_row(a, b, surplus=surplus_cols[si], with_eps=True))
        si += 1
    for a, b in weaks:
        structural.append(make_row(a, b, surplus=surplus_cols[si]))
        si += 1
    eps_row_index = None
    if has_eps:
        row = [Fraction(0)] * nstruct
        row[eps_col] = Fraction(1)
        row[slack_col] = Fraction(1)
        eps_row_index = len(structural)
        structural.append((row, Fraction(1)))

    # Normalize rhs signs, then give every row an artificial basis variable
    # except the eps bound row, whose slack already provides one.
    rows = []
    basis = []
    art_cols = []
    ntotal = nstruct + sum(1 for i in range(len(structural)) if i != eps_row_index)
    next_art = nstruct
    for i, (row, rhs) in enumerate(structural):
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        full = row + [Fraction(0)] * (ntotal - nstruct) + [rhs]
        if i == eps_row_index:
            basis.append(slack_col)
        else:
            full[next_art] = Fraction(1)
            basis.append(next_art)
            art_cols.append(next_art)
            next_art += 1
        rows.append(full)

    if art_cols:
        c1 = [Fraction(0)] * ntotal
        for j in art_cols:
            c1[j] = Fraction(-1)
        if _simplex_max(rows, basis, c1) < 0:
            return None
        # Pivot residual artificials out of the basis; rows that cannot be
        # cleared are redundant and get dropped.
        art_set = set(art_cols)
        keep = []
        for i in range(len(rows)):
            if basis[i] in art_set:
                j = next(
                    (j for j in range(nstruct) if rows[i][j] != 0),
                    None,
                )
                if j is None:
                    continue
                _pivot(rows, basis, i, j)
            keep.append(i)
        rows = [rows[i][:nstruct] + [rows[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]
    else:
        rows = [r[:nstruct] + [r[-1]] for r in rows]

    if has_eps:
        c2 = [Fraction(0)] * nstruct
        c2[eps_col] = Fraction(1)
        if _simplex_max(rows, basis, c2) <= 0:
            return None

    values = [Fraction(0)] * nstruct
    for i, bv in enumerate(basis):
        values[bv] = rows[i][-1]
    point = tuple([values[k] - values[dim + k] for k in range(dim)])
    return _checked_witness(point, eqs, stricts, weaks)


def _checked_witness(point, eqs, stricts, weaks):
    """The point, once it satisfies every constraint exactly, strict ones
    strictly; WitnessViolation names the first constraint it breaks."""
    for rows, holds, rel in ((eqs, eq, "="), (stricts, gt, ">"),
                             (weaks, ge, ">=")):
        for a, b in rows:
            if not holds(sum(Fraction(ak) * x for ak, x in zip(a, point)), b):
                raise WitnessViolation(
                    f"witness {point} breaks {a} . x {rel} {b}"
                )
    return point
