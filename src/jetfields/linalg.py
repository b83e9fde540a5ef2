"""Dense exact linear algebra over the rationals.

Matrices are lists of lists of exact rationals or ints.  They are tiny
(the variable count, or a handful of monomial coordinates), so what
matters is exactness and little setup cost per call.

``det``, ``inverse`` and ``kernel_basis`` share one elimination
(``_eliminate``).  It scales each row to integers by the lcm of its
denominators and runs fraction-free Gauss-Jordan: each update is divided
exactly by the previous pivot (Bareiss, Math. Comp. 22(103), 1968), and
a column with no pivot is skipped.  A scaled row is a nonzero multiple of
the row that rational elimination holds, so both pick the same pivots,
and every pivot entry of the reduced rows equals the last pivot.  So
``det`` is the last pivot over the row scales, ``inverse`` returns what
elimination ends with, integers over one positive denominator, and
``kernel_basis`` divides the reduced rows by the last pivot; only the
kernel's entries are built as rationals.
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


def _eliminate(m: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan on the integer rows ``m``, in place, over
    their first ``ncols`` columns; returns the pivot columns, the sign of
    the row swaps and the last pivot.

    Pivot k goes to row k.  Each step updates every row but the pivot row,
    which leaves all rows over the current pivot: a pivot row holds the
    last pivot at its pivot column, the other rows hold 0 there.
    """
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            m[top], m[pivot] = m[pivot], m[top]
            sign = -sign
        pivot_row = m[top]
        p = pivot_row[col]
        for r, row in enumerate(m):
            if r != top:
                f = row[col]
                m[r] = [(x * p - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
        pivots.append(col)
    return pivots, sign, prev


def det(a: Matrix) -> "Q":
    """Determinant by elimination: the last pivot is the determinant of the
    scaled rows up to the swaps' sign, and the row scales divide it."""
    m, scales = _integer_rows(a)
    pivots, sign, last = _eliminate(m, len(m))
    if len(pivots) < len(m):
        return Q(0)
    return Q(sign * last, prod(scales))


def inverse(a: Matrix) -> tuple[list[list[int]], int]:
    """The inverse as (X, d) with a^-1 = X / d, X integer and d > 0, by
    fraction-free Gauss-Jordan; raises SingularMatrix when the rank drops.

    The scaled rows D a are augmented with D, the diagonal of the scales,
    so they solve (D a) X = D for X = a^-1.  After the last step the
    augmented block is the last pivot times X.  X / d need not be reduced.
    """
    m, scales = _integer_rows(a)
    n = len(m)
    for i, row in enumerate(m):
        row.extend(scales[i] if j == i else 0 for j in range(n))
    pivots, _, last = _eliminate(m, n)
    if len(pivots) < n:
        col = next(c for c in range(n) if c not in pivots)
        raise SingularMatrix(f"matrix is singular (rank deficiency at column {col})")
    if last < 0:
        return [[-x for x in row[n:]] for row in m], -last
    return [row[n:] for row in m], last


def kernel_basis(a: Matrix, ncols: int) -> list[Vector]:
    """A canonical basis of the right kernel of ``a`` (ncols columns).

    ``a`` is brought to reduced row echelon form, which is the rows that
    ``_eliminate`` leaves over its last pivot.  Each basis vector has a
    1 in one free column and the forced pivot entries elsewhere; vectors
    are ordered by free column index.
    """
    m, _ = _integer_rows(a)
    pivots, _, last = _eliminate(m, ncols)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Q(0)] * ncols
            v[f] = Q(1)
            for r, p in enumerate(pivots):
                v[p] = Q(-m[r][f], last)
            basis.append(v)
    return basis
