"""Exact linear algebra over the rationals, run on integer rows.

Small dense routines used wherever a rank or null-space decision must be
discontinuity-free: row-proper reduction of kernel representations, exact
kernel recovery from rational data, and the eigenvalue-at-one certificate of
lifted systems.  Matrices are lists of row lists (or numpy arrays).  Every
entry is read exactly through ``as_integer_ratio()``: ints, Fractions,
binary floats and numpy scalars alike, and strings like ``"3/4"`` through
:class:`fractions.Fraction`.  NaN and infinite entries raise
:class:`NonFiniteEntry`.

Each row is multiplied by the lcm of its denominators and divided by the
gcd of the result, so elimination runs on Python integers.  One forward
elimination to row echelon form sits behind every routine (pivot rows are
neither normalised nor used to clear the entries above them): a row with
entry f under the pivot p becomes (p/g) row - (f/g) top, g = gcd(p, f),
with the sign taken so that the multiplier p/g is positive, and is then
divided by its content.  Rows with a zero under the pivot are not touched,
which keeps band matrices sparse.  Every row therefore stays a positive
rational multiple of the row that elimination over the rationals would
give, so the zero pattern, the pivot rows, the swaps and the sign are the
rational ones.  Content removal makes each row the primitive integer
multiple of its rational row, whose entries divide minors of the input, so
the integers grow no faster than in Bareiss's fraction-free elimination.

``solve`` and ``null_space`` back-substitute in Fractions, with the free
variables set to zero or to a unit vector; a scaled row and its scaled
right-hand side give the same solution.  ``det`` divides the row scalings
back out.  Every returned entry is a :class:`fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from numbers import Integral

from .errors import NonFiniteEntry

Matrix = list[list[int]]


def _rows(matrix) -> list:
    # numpy arrays become lists of Python floats and ints in one call
    return matrix.tolist() if hasattr(matrix, "tolist") else matrix


def _ratio(x) -> tuple[int, int]:
    try:
        return x.as_integer_ratio()
    except AttributeError:  # numpy integers, decimal strings
        # int() first: a Fraction keeps a fixed-width numpy numerator, which overflows
        return (int(x), 1) if isinstance(x, Integral) else Fraction(x).as_integer_ratio()
    except (ValueError, OverflowError):
        raise NonFiniteEntry(f"exact arithmetic needs finite entries, got {x!r}") from None


def _integer_row(row) -> tuple[list[int], int, int]:
    """The row times the positive rational that makes it integral with content 1.

    Returns the integer row and that multiplier as numerator and denominator.
    """
    try:
        pairs = [x.as_integer_ratio() for x in row]
    except (AttributeError, ValueError, OverflowError):
        pairs = [_ratio(x) for x in row]
    denominator = lcm(*(d for _, d in pairs))
    if denominator == 1:
        ints = [n for n, _ in pairs]
    else:
        ints = [n * (denominator // d) for n, d in pairs]
    content = gcd(*ints)
    if content > 1:
        ints = [v // content for v in ints]
    return ints, denominator, content or 1


def _integer_rows(rows) -> Matrix:
    return [_integer_row(row)[0] for row in rows]


def _echelon(M: Matrix, track: bool = False) -> tuple[list[int], int, Fraction]:
    """Reduce the integer rows M in place to row echelon form.

    Returns the pivot columns (pivot k sits in row k), the sign of the row
    permutation, and, when ``track`` is set, the product of the positive
    multipliers the elimination applied to the rows (1 otherwise).  Each
    pivot clears the entries below it, touching only the columns from the
    pivot column on.
    """
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots: list[int] = []
    sign = 1
    growth = Fraction(1)
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
        p = M[r][c]
        top = M[r][c + 1 :]
        for i in range(r + 1, nrows):
            row = M[i]
            f = row[c]
            if not f:
                continue
            g = gcd(p, f)
            a, b = (p // g, f // g) if p > 0 else (-p // g, -f // g)
            new = [a * x - b * y if y else a * x for x, y in zip(row[c + 1 :], top)]
            content = gcd(*new)
            if content > 1:
                new = [v // content for v in new]
            row[c] = 0
            row[c + 1 :] = new
            if track:
                growth *= Fraction(a, content or 1)
        pivots.append(c)
    return pivots, sign, growth


def _back_substitute(R: Matrix, pivots: list[int], x: list[Fraction], rhs) -> list[Fraction]:
    """Fill the pivot entries of x so that R x = rhs on the pivot rows.

    Entries of x outside the pivot columns are taken as given.
    """
    ncols = len(x)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        row = R[r]
        acc = rhs[r] - sum(row[j] * x[j] for j in range(c + 1, ncols) if row[j] and x[j])
        x[c] = Fraction(acc) / row[c]
    return x


def rank(matrix) -> int:
    return len(_echelon(_integer_rows(_rows(matrix)))[0])


def null_space(matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right null space, one vector per free column.

    Vector k has a 1 in the k-th free column, zeros in the other free
    columns, and the pivot entries that back-substitution forces.
    """
    M = _integer_rows(_rows(matrix))
    if ncols is None:
        if not M:
            raise ValueError("column count required for an empty matrix")
        ncols = len(M[0])
    pivots, _, _ = _echelon(M)
    pivot_set = set(pivots)
    zeros = [0] * len(pivots)
    basis = []
    for c in range(ncols):
        if c not in pivot_set:
            v = [Fraction(0)] * ncols
            v[c] = Fraction(1)
            basis.append(_back_substitute(M, pivots, v, zeros))
    return basis


def left_null_space(matrix, nrows: int | None = None) -> list[list[Fraction]]:
    """Basis of the left null space (row vectors v with v @ M = 0)."""
    rows = _rows(matrix)
    if nrows is None:
        nrows = len(rows)
    return null_space(list(zip(*rows)), ncols=nrows)


def det(matrix) -> Fraction:
    """Determinant: the signed product of the echelon pivots over the row scalings."""
    rows = _rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    scaled = [_integer_row(row) for row in rows]
    M = [ints for ints, _, _ in scaled]
    pivots, sign, growth = _echelon(M, track=True)
    if len(pivots) < n:
        return Fraction(0)
    scale = prod((Fraction(num, den) for _, num, den in scaled), start=growth)
    return Fraction(sign * prod(M[k][k] for k in range(n))) / scale


def solve(matrix, rhs) -> list[Fraction] | None:
    """Solve M x = b exactly; ``None`` when the system is inconsistent.

    One elimination of [M | b]: the system is inconsistent exactly when an
    echelon pivot lies in b's column.  For underdetermined systems the free
    variables are set to zero.
    """
    rows = _rows(matrix)
    b = _rows(rhs)
    if len(rows) != len(b):
        raise ValueError("row count of matrix and rhs differ")
    ncols = len(rows[0]) if len(rows) else 0
    M = _integer_rows([[*row, v] for row, v in zip(rows, b)])
    pivots, _, _ = _echelon(M)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    return _back_substitute(M, pivots, x, [row[ncols] for row in M])
