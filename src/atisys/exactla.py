"""Exact linear algebra over the rationals, run on integer rows.

Small dense routines used wherever a rank or null-space decision must be
discontinuity-free, as in exact kernel recovery from rational data.
Matrices are lists of row lists (or numpy arrays).  A finite binary float is
read as the rational it encodes, one of the float bridges named in
:mod:`atisys.poly`; every other entry is read by that module's rule.  NaN and
infinite entries raise :class:`NonFiniteEntry`.

Each row is multiplied by the lcm of its denominators and divided by the
gcd of the result, so elimination runs on Python integers.  One forward
elimination to row echelon form sits behind every routine (pivot rows are
neither normalised nor used to clear the entries above them).  It is
Bareiss's fraction-free elimination (Math. Comp. 22, 1968): under pivot p,
with prev the previous pivot (1 at first), each lower row's entry x becomes
(p x - f y) / prev, with f its entry under the pivot and y the pivot row's.
By Sylvester's identity every entry is then a minor of the input, so the
division is exact, and each row is a nonzero multiple of the row that
elimination over the rationals would give: the zero pattern, the pivot rows
and the swaps are the rational ones.

``rank`` is the column count less the number of null vectors, found as
below, on the column count of a 2-D array's shape, else of the first row,
else 0 (so a 0 x n array has n unknowns).  A wide matrix is ranked as its
transpose, which has few free columns.  Each null vector is
back-substituted in integers over its free entry, set to 1; exact recovery
reads the integer vectors themselves.

A tall matrix (more than ``ncols + 1`` rows, such as the transposed data
matrix of exact kernel recovery) has only its first ``ncols + 1`` rows
eliminated.  Every other row is read too, into an object array of Python
integers unless the matrix is an int64 array, and checked against the
block's basis with one product: in int64 when the matrix is an int64 array
and ncols·max|y|·max|entry| < 2**63, so that no partial sum overflows, and
in Python integers otherwise.  Rows it misses join the block's echelon
rows, each divided by its content so that minors of minors do not
compound, for one more elimination, whose null space lies inside the first
and so annihilates every row.  Either way the null space is the
whole matrix's, and the canonical basis it returns depends on nothing
else, so the result is identical to eliminating every row; the worst case
costs one small elimination more.
"""

from __future__ import annotations

from math import gcd, isfinite, lcm

import numpy as np

from .poly import _ratio

Matrix = list[list[int]]


def _rows(matrix) -> list:
    # numpy arrays become lists of Python floats and ints in one call
    return matrix.tolist() if hasattr(matrix, "tolist") else matrix


def _integer_rows(rows) -> Matrix:
    """Each row times the positive rational that makes it integral with content 1."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            ints = row
        else:
            try:  # the float bridge: a finite float is the rational it encodes
                pairs = list(map(float.as_integer_ratio, row))
            except (TypeError, ValueError, OverflowError):
                pairs = [
                    x.as_integer_ratio() if isinstance(x, float) and isfinite(x) else _ratio(x)
                    for x in row
                ]
            denominator = lcm(*(d for _, d in pairs))
            ints = [n * (denominator // d) for n, d in pairs]
        content = gcd(*ints)
        out.append([v // content for v in ints] if content > 1 else list(ints))
    return out


def _echelon(M: Matrix) -> list[int]:
    """Reduce the integer rows M in place to row echelon form by Bareiss elimination.

    Returns the pivot columns (pivot k sits in row k).  Each pivot clears the
    entries below it and scales every lower row, dividing exactly by the
    previous pivot, on the columns after the pivot column.
    """
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        p = M[r][c]
        top = M[r][c + 1 :]
        for i in range(r + 1, nrows):
            row = M[i]
            f = row[c]
            row[c] = 0
            row[c + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[c + 1 :], top)]
        prev = p
        pivots.append(c)
    return pivots


def _null_vector(R: Matrix, pivots: list[int], free: int, width: int) -> list[int]:
    """The solution of R y = 0 with y[free] = 1 and every other non-pivot entry 0.

    Returned as integers y over the nonzero denominator y[free].  From the
    last pivot row up, the pivot entry must be -s / p, with s the row's dot
    product with y so far and p its pivot; with g = gcd(s, p), y is scaled
    by p / g and its pivot entry set to -s / g, which keeps it an integer.
    y stays primitive (content 1): it starts as a unit vector, and after a
    step its content is gcd(p / g, s / g) = 1.  So y[free] never exceeds the
    lcm of the solution's denominators.
    """
    y = [0] * width
    y[free] = 1
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        row = R[r]
        s = sum(row[j] * y[j] for j in range(c + 1, width) if row[j] and y[j])
        if not s:
            continue
        g = gcd(s, row[c])
        m = row[c] // g
        if m != 1:
            y = [v * m for v in y]
        y[c] = -s // g
    return y


def _width(matrix) -> int:
    shape = getattr(matrix, "shape", ())
    return shape[1] if len(shape) == 2 else len(matrix[0]) if len(matrix) else 0


def rank(matrix) -> int:
    """The rank: the column count less the number of null vectors."""
    if len(matrix) < _width(matrix):
        matrix = matrix.T if isinstance(matrix, np.ndarray) else list(zip(*matrix))
    ncols = _width(matrix)
    return ncols - len(_null_vectors(matrix, ncols))


def _null_vectors(matrix, ncols: int) -> dict[int, list[int]]:
    """The right null space as integer vectors y over y[free], keyed by free.

    y[free] = 1 among the free columns, and back-substitution forces the
    pivot entries.  This basis depends only on the null space (equal null
    spaces have equal row spaces, so the same pivots), whatever the order or
    number of the rows; a tall matrix is eliminated in two steps (module
    docstring).
    """
    block, rest = _integer_rows(_rows(matrix[: ncols + 1])), matrix[ncols + 1 :]
    if not (isinstance(rest, np.ndarray) and rest.dtype == np.int64):
        rest = np.array(_integer_rows(_rows(rest)), dtype=object)
    pivots, basis = _null_basis(block, ncols)
    if not basis or not len(rest):
        return basis
    vectors = list(basis.values())
    bound = ncols * max(abs(v) for y in vectors for v in y) * max(int(rest.max()), -int(rest.min()))
    dtype = np.int64 if rest.dtype == np.int64 and bound < 2**63 else object
    products = rest.astype(dtype, copy=False) @ np.array(vectors, dtype=dtype).T
    missed = np.flatnonzero(products.any(axis=1))
    if len(missed):
        _, basis = _null_basis(_integer_rows(block[: len(pivots)] + _rows(rest[missed])), ncols)
    return basis


def _null_basis(M: Matrix, ncols: int) -> tuple[list[int], dict[int, list[int]]]:
    """Reduce M in place; its pivot columns and, for each free column, the
    integer null vector of :func:`_null_vector`."""
    pivots = _echelon(M)
    pivot_set = set(pivots)
    free = (c for c in range(ncols) if c not in pivot_set)
    return pivots, {c: _null_vector(M, pivots, c, ncols) for c in free}
