"""Dense exact linear algebra over Fraction entries.

Everything here runs at desk scale (dimensions below ten), so plain Gaussian
elimination with exact pivots is both adequate and simplest to trust.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def matvec(m, x):
    return tuple(dot(row, x) for row in m)


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
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


def matrix_rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, n):
    """Basis of {x in Q^n : rows @ x = 0}; the empty system yields e_1..e_n."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    m, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def projection_matrix(vectors, n):
    """Orthogonal projection onto span(vectors), as an n x n Fraction matrix.

    With B the matrix of the vectors as rows, P = B^T Y for every solution
    Y of (B B^T) Y = B, since B^T Y is the same for all of them; one
    elimination of [B B^T | B] gives one.  The vectors need not be
    independent.
    """
    k = len(vectors)
    m, pivots = rref([[dot(u, v) for v in vectors] + list(u) for u in vectors])
    y = [[Fraction(0)] * n for _ in range(k)]
    for r, pc in enumerate(pivots):
        y[pc] = m[r][k:]
    return [
        [dot((b[i] for b in vectors), (row[j] for row in y)) for j in range(n)]
        for i in range(n)
    ]


def common_denominator(fractions_iter):
    d = 1
    for f in fractions_iter:
        d = lcm(d, Fraction(f).denominator)
    return d
