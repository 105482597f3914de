"""Dense exact linear algebra over int or Fraction entries, at desk scale,
and the one integer normal form of the library.

The normal form: a rational row is scaled to integers by the lcm of its
denominators (_integer_row) and kept primitive by the gcd of its entries
(_primitive); a nonzero row's line (_line) is its primitive multiple
oriented by its first nonzero entry.  The hyperplanes' canonical form
(geometry.canonicalize) and the lines that key the cone caches are such
lines; the library takes no gcd outside this module.

Every routine runs one fraction-free Gauss-Jordan elimination (Bareiss,
1968): rows scaled to integers, eliminated by cross-multiplication and
divided by their gcd.  Fractions are formed only for returned entries; the
reduced row echelon form is unique, so they equal Fraction elimination's.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _idot(u, v):
    return sum(map(mul, u, v))


def _integer_row(row):
    """(ints, den): the int or Fraction row times den, the lcm of its
    denominators, the least positive integer that makes every entry one."""
    den = lcm(*[c.denominator for c in row])
    return [c.numerator * (den // c.denominator) for c in row], den


def _primitive(ints):
    """The integer row divided by the gcd of its entries, as a tuple: the
    multiple with coprime entries, whose sign on any point is the row's.
    A zero row stays as it is."""
    g = gcd(*ints)
    return tuple([c // g for c in ints]) if g else tuple(ints)


def _line(row):
    """The primitive integer row spanning the same line as the nonzero
    integer row, first nonzero entry positive: _primitive, with the gcd
    negated when the row's first nonzero entry is negative."""
    g = gcd(*row)
    if next(c for c in row if c) < 0:
        g = -g
    return tuple([c // g for c in row])


def _eliminate(rows):
    """(m, pivots): m the rows' reduced row echelon form in integers, zero
    rows last.  Pivot row r has its pivot in column pivots[r], not
    necessarily 1, and each row an elimination step changed is primitive:
    divided by its gcd, as _primitive does."""
    m = [_integer_row(row)[0] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top = m[r]
        a = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                new = [a * x - f * y for x, y in zip(row, top)]
                g = gcd(*new) or 1  # 0 when the row eliminated to zero
                m[i] = [x // g for x in new]
        pivots.append(c)
    return m, pivots


def rref(rows):
    """Reduced row echelon form over Fraction, each pivot 1; returns
    (rows, pivot_columns).  Public API: the library itself reads
    _eliminate's integer rows."""
    m, pivots = _eliminate(rows)
    scale = [row[c] for row, c in zip(m, pivots)]
    scale += [1] * (len(m) - len(pivots))
    return [[Fraction(x, s) for x in row] for row, s in zip(m, scale)], pivots


def matrix_rank(rows):
    return len(_eliminate(rows)[1])


def nullspace(rows, n):
    """Basis of {x in Q^n : rows @ x = 0}; the empty system yields e_1..e_n."""
    if not rows:
        return [tuple([Fraction(int(i == j)) for j in range(n)]) for i in range(n)]
    m, pivots = _eliminate(rows)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


def projection_matrix(vectors, n):
    """Orthogonal projection onto span(vectors), as an n x n Fraction matrix.

    With B the matrix of the vectors as rows, P = B^T Y for every solution
    Y of (B B^T) Y = B, since B^T Y is the same for all of them; one
    elimination of [B B^T | B] gives one.  The vectors need not be
    independent, and scaling them to integer rows leaves P as it is.
    """
    b = [_integer_row(v)[0] for v in vectors]
    k = len(b)
    m, pivots = _eliminate([[_idot(u, v) for v in b] + u for u in b])
    # row r of Y is m[r][k:] / m[r][pc] at pc = pivots[r], and 0 elsewhere
    den = lcm(*[row[pc] for row, pc in zip(m, pivots)])
    ys = [
        (b[pc], [x * (den // row[pc]) for x in row[k:]])
        for row, pc in zip(m, pivots)
    ]
    return [
        [Fraction(sum(u[i] * y[j] for u, y in ys), den) for j in range(n)]
        for i in range(n)
    ]


def common_denominator(fractions_iter):
    return lcm(*[Fraction(f).denominator for f in fractions_iter])
