"""Exact linear algebra over the rationals.

Small dense routines on lists of :class:`fractions.Fraction`, used wherever a
rank or null-space decision must be discontinuity-free: consistency tests of
kernel representations, exact kernel recovery from rational data, and the
eigenvalue-at-one certificate of lifted systems.  Matrices are lists of row
lists; all inputs are converted with :func:`fractions.Fraction`, which is
exact for ints, strings like ``"3/4"`` and binary floats.

Every routine runs one forward elimination to row echelon form (pivot rows
are neither normalised nor used to clear the entries above them); ``solve``
and ``null_space`` then back-substitute with the free variables set to zero
or to a unit vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

Matrix = list[list[Fraction]]


def to_fraction_matrix(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def _echelon(M: Matrix) -> tuple[list[int], int]:
    """Reduce M in place to row echelon form.

    Returns the pivot columns (pivot k sits in row k) and the sign of the
    row permutation.  Each pivot clears the entries below it, touching only
    the columns from the pivot column on.
    """
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots: list[int] = []
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if M[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            M[r], M[pivot] = M[pivot], M[r]
            sign = -sign
        top = M[r][c:]
        inv = 1 / top[0]
        for i in range(r + 1, nrows):
            row = M[i]
            if row[c]:
                f = row[c] * inv
                row[c:] = [a - f * b if b else a for a, b in zip(row[c:], top)]
        pivots.append(c)
    return pivots, sign


def _back_substitute(R: Matrix, pivots: list[int], x: list[Fraction], rhs) -> list[Fraction]:
    """Fill the pivot entries of x so that R x = rhs on the pivot rows.

    Entries of x outside the pivot columns are taken as given.
    """
    ncols = len(x)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        row = R[r]
        acc = rhs[r] - sum(row[j] * x[j] for j in range(c + 1, ncols) if row[j] and x[j])
        x[c] = acc / row[c]
    return x


def rank(matrix) -> int:
    return len(_echelon(to_fraction_matrix(matrix))[0])


def null_space(matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right null space, one vector per free column.

    Vector k has a 1 in the k-th free column, zeros in the other free
    columns, and the pivot entries that back-substitution forces.
    """
    M = to_fraction_matrix(matrix)
    if ncols is None:
        if not M:
            raise ValueError("column count required for an empty matrix")
        ncols = len(M[0])
    pivots, _ = _echelon(M)
    pivot_set = set(pivots)
    zeros = [Fraction(0)] * len(pivots)
    basis = []
    for c in range(ncols):
        if c not in pivot_set:
            v = [Fraction(0)] * ncols
            v[c] = Fraction(1)
            basis.append(_back_substitute(M, pivots, v, zeros))
    return basis


def left_null_space(matrix, nrows: int | None = None) -> list[list[Fraction]]:
    """Basis of the left null space (row vectors v with v @ M = 0)."""
    M = to_fraction_matrix(matrix)
    if nrows is None:
        nrows = len(M)
    transposed = [list(col) for col in zip(*M)]
    return null_space(transposed, ncols=nrows)


def det(matrix) -> Fraction:
    """Determinant: the signed product of the echelon pivots."""
    M = to_fraction_matrix(matrix)
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant requires a square matrix")
    pivots, sign = _echelon(M)
    if len(pivots) < n:
        return Fraction(0)
    return prod((M[k][k] for k in range(n)), start=Fraction(sign))


def solve(matrix, rhs) -> list[Fraction] | None:
    """Solve M x = b exactly; ``None`` when the system is inconsistent.

    For underdetermined systems the free variables are set to zero.
    """
    M = to_fraction_matrix(matrix)
    b = [Fraction(x) for x in rhs]
    if len(M) != len(b):
        raise ValueError("row count of matrix and rhs differ")
    ncols = len(M[0]) if M else 0
    augmented = [row + [val] for row, val in zip(M, b)]
    pivots, _ = _echelon(augmented)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    return _back_substitute(augmented, pivots, x, [row[ncols] for row in augmented])
