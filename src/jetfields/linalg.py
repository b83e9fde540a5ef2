"""Dense exact linear algebra over the rationals.

Matrices are lists of lists of exact rationals or ints.  They are tiny
(the variable count, or a handful of monomial coordinates), so what
matters is exactness and little setup cost per call.

``det`` and ``inverse`` scale each row to integers by the lcm of its
denominators and eliminate fraction-free: each update is divided exactly
by the previous pivot (Bareiss, Math. Comp. 22(103), 1968), and each row
is kept from its current column on.  A scaled row is a nonzero multiple of
the row that rational elimination holds, so both pick the same pivots.
``kernel_basis`` stays on rationals.
"""

from __future__ import annotations

from math import lcm, prod

from .errors import SingularMatrix
from .rationals import Q

Vector = list
Matrix = list


def _integer_rows(a: Matrix) -> tuple[list[list[int]], list[int]]:
    """Each row of ``a`` times the lcm of its denominators, and those lcms."""
    rows, scales = [], []
    for row in a:
        d = lcm(*[c.denominator for c in row])
        rows.append([c.numerator * (d // c.denominator) for c in row])
        scales.append(d)
    return rows, scales


def det(a: Matrix) -> "Q":
    """Determinant by Bareiss elimination: the last pivot is the
    determinant of the scaled rows, which the row scales divide."""
    m, scales = _integer_rows(a)
    n = len(m)
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][0]), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        top = m[col]
        p, tail = top[0], top[1:]
        for r in range(col + 1, n):
            row = m[r]
            f = row[0]
            m[r] = [(x * p - f * y) // prev for x, y in zip(row[1:], tail)]
        prev = p
    return Q(sign * prev, prod(scales))


def inverse(a: Matrix) -> Matrix:
    """Inverse by fraction-free Gauss-Jordan; raises SingularMatrix when the rank drops.

    The scaled rows D a are augmented with D, the diagonal of the scales,
    so they solve (D a) X = D for X = a^-1.  Each step updates every row
    but the pivot row, which leaves all rows over the current pivot; after
    the last step the augmented block is the last pivot times X.
    """
    m, scales = _integer_rows(a)
    n = len(m)
    for i, row in enumerate(m):
        row.extend(scales[i] if j == i else 0 for j in range(n))
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][0]), None)
        if pivot is None:
            raise SingularMatrix(f"matrix is singular (rank deficiency at column {col})")
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col]
        p, tail = top[0], top[1:]
        for r in range(n):
            row = m[r]
            if r == col:
                m[r] = tail
            else:
                f = row[0]
                m[r] = [(x * p - f * y) // prev for x, y in zip(row[1:], tail)]
        prev = p
    return [[Q(x, prev) for x in row] for row in m]


def kernel_basis(a: Matrix, ncols: int) -> list[Vector]:
    """A canonical basis of the right kernel of ``a`` (ncols columns).

    ``a`` is brought to reduced row echelon form.  Each basis vector has a
    1 in one free column and the forced pivot entries elsewhere; vectors
    are ordered by free column index.
    """
    m = [row[:] for row in a]
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Q(1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Q(0)] * ncols
            v[f] = Q(1)
            for r, p in enumerate(pivots):
                v[p] = -m[r][f]
            basis.append(v)
    return basis
