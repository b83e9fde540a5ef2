"""Dense exact linear algebra over the rationals.

Plain Gauss-Jordan on lists of lists of exact rationals.  Matrices here
are tiny (the variable count, or a handful of monomial coordinates), so
asymptotics are irrelevant; what matters is exactness and zero setup
cost per call.
"""

from __future__ import annotations

from typing import Sequence

from .errors import SingularMatrix
from .rationals import Q, as_rational

Vector = list
Matrix = list


def mat(values: Sequence[Sequence]) -> Matrix:
    return [[as_rational(v) for v in row] for row in values]


def identity(n: int) -> Matrix:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def det(a: Matrix) -> "Q":
    """Determinant by fraction-preserving Gaussian elimination."""
    m = [row[:] for row in a]
    n = len(m)
    result = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result = result * m[col][col]
        inv = Q(1) / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return result

def inverse(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises SingularMatrix when the rank drops."""
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrix(f"matrix is singular (rank deficiency at column {col})")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Q(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    m = [row[:] for row in a]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
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
        row += 1
        if row == len(m):
            break
    return m, pivots


def kernel_basis(a: Matrix, ncols: int) -> list[Vector]:
    """A canonical basis of the right kernel of ``a`` (ncols columns).

    Each basis vector has a 1 in one free column and the forced pivot
    entries elsewhere; vectors are ordered by free column index.
    """
    if not a:
        return [[Q(1) if i == j else Q(0) for i in range(ncols)] for j in range(ncols)]
    reduced, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis
