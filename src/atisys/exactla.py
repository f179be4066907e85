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
neither normalised nor used to clear the entries above them): a row with
entry f under the pivot p becomes (p/g) row - (f/g) top, g = gcd(p, f),
with the sign taken so that the multiplier p/g is positive, and is then
divided by its content.  Rows with a zero under the pivot are not touched.
Every row therefore stays a positive rational multiple of the row that
elimination over the rationals would give, so the zero pattern, the pivot
rows and the swaps are the rational ones.  Content removal makes each row
the primitive integer multiple of its rational row, whose entries divide
minors of the input, so the integers grow no faster than in Bareiss's
fraction-free elimination.

``solve`` and ``null_space`` back-substitute in integers, with the free
variables set to zero or to a unit vector: the solution is kept as an
integer vector whose free entry is the common denominator, and divided out
once at the end.  ``solve`` takes M x = b as the null vector of [M | b]
with -1 in b's column; a scaled row and its scaled right-hand side give the
same solution.  Every returned entry is a :class:`fractions.Fraction`.

``null_space`` of a tall matrix (more than ``ncols + 1`` rows, such as the
transposed data matrix of exact kernel recovery) eliminates only its first
``ncols + 1`` rows and checks that block's basis against the other rows by
exact integer dot products.  Rows it misses join the block's echelon rows
for one more elimination, whose null space lies inside the first and so
annihilates every row.  Either way the null space is the whole matrix's,
and the canonical basis it returns depends on nothing else, so the result
is identical to eliminating every row; the worst case costs one small
elimination more.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, lcm

from .poly import _ratio

Matrix = list[list[int]]


def _rows(matrix) -> list:
    # numpy arrays become lists of Python floats and ints in one call
    return matrix.tolist() if hasattr(matrix, "tolist") else matrix


def _integer_rows(rows) -> Matrix:
    """Each row times the positive rational that makes it integral with content 1."""
    out = []
    for row in rows:
        try:  # the float bridge: a finite float is the rational it encodes
            pairs = list(map(float.as_integer_ratio, row))
        except (TypeError, ValueError, OverflowError):
            pairs = [
                x.as_integer_ratio() if isinstance(x, float) and isfinite(x) else _ratio(x)
                for x in row
            ]
        denominator = lcm(*(d for _, d in pairs))
        if denominator == 1:
            ints = [n for n, _ in pairs]
        else:
            ints = [n * (denominator // d) for n, d in pairs]
        content = gcd(*ints)
        out.append([v // content for v in ints] if content > 1 else ints)
    return out


def _echelon(M: Matrix) -> list[int]:
    """Reduce the integer rows M in place to row echelon form.

    Returns the pivot columns (pivot k sits in row k).  Each pivot clears the
    entries below it, touching only the columns from the pivot column on.
    """
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots: list[int] = []
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
        pivots.append(c)
    return pivots


def _null_vector(R: Matrix, pivots: list[int], free: int, width: int) -> list[int]:
    """The solution of R y = 0 with y[free] = 1 and every other non-pivot entry 0.

    Returned as integers y over the nonzero denominator y[free].  From the
    last pivot row up, the pivot entry must be -s / p, with s the row's dot
    product with y so far and p its pivot; y is scaled by p / gcd(s, p) so
    that it stays an integer, and then divided by its content, so y[free]
    never exceeds the lcm of the solution's denominators.
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
        content = gcd(*y)
        if content > 1:
            y = [v // content for v in y]
    return y


def rank(matrix) -> int:
    return len(_echelon(_integer_rows(_rows(matrix))))


def null_space(matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right null space, one vector per free column.

    Vector k has a 1 in the k-th free column, zeros in the other free
    columns, and the pivot entries that back-substitution forces.  That
    basis depends only on the null space: equal null spaces have equal row
    spaces, hence the same pivot columns and the same vectors, whatever the
    order or number of the rows that produced them.

    A tall matrix is eliminated in two steps.  The first ``ncols + 1`` rows
    are eliminated and their basis is checked against every other row by
    exact integer dot products.  If no row is missed, that basis annihilates
    the whole matrix and is returned.  Otherwise the missed rows join the
    block's echelon rows and the block is eliminated once more; its null
    space lies inside the first, which already annihilates the rows not
    missed, so the second basis is the null space of the whole matrix.
    """
    return [[Fraction(v, y[free]) for v in y] for free, y in _null_vectors(matrix, ncols).items()]


def _null_vectors(matrix, ncols: int | None) -> dict[int, list[int]]:
    """:func:`null_space`'s basis as integer vectors y over y[free], keyed by free."""
    M = _integer_rows(_rows(matrix))
    if ncols is None:
        if not M:
            raise ValueError("column count required for an empty matrix")
        ncols = len(M[0])
    block, rest = M[: ncols + 1], M[ncols + 1 :]
    pivots, basis = _null_basis(block, ncols)
    missed = _missed_rows(basis.values(), rest)
    if missed:
        _, basis = _null_basis(block[: len(pivots)] + missed, ncols)
    return basis


def _null_basis(M: Matrix, ncols: int) -> tuple[list[int], dict[int, list[int]]]:
    """Reduce M in place; its pivot columns and, for each free column, the
    integer null vector of :func:`_null_vector`."""
    pivots = _echelon(M)
    pivot_set = set(pivots)
    free = (c for c in range(ncols) if c not in pivot_set)
    return pivots, {c: _null_vector(M, pivots, c, ncols) for c in free}


def _missed_rows(vectors, rows: Matrix) -> Matrix:
    """The integer rows that some integer null vector does not annihilate.

    Each vector's dot products with all rows are accumulated a column at a
    time.
    """
    if not vectors or not rows:
        return []
    columns = list(zip(*rows))
    missed: set[int] = set()
    for y in vectors:
        acc = [0] * len(rows)
        for a, column in zip(y, columns):
            if a:
                acc = [s + a * v for s, v in zip(acc, column)]
        missed.update(i for i, s in enumerate(acc) if s)
    return [rows[i] for i in sorted(missed)]


def left_null_space(matrix, nrows: int | None = None) -> list[list[Fraction]]:
    """Basis of the left null space (row vectors v with v @ M = 0)."""
    rows = _rows(matrix)
    if nrows is None:
        nrows = len(rows)
    return null_space(list(zip(*rows)), ncols=nrows)


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
    pivots = _echelon(M)
    if pivots and pivots[-1] == ncols:
        return None
    # [M | b] [x; -1] = 0, with the free variables of x at zero
    y = _null_vector(M, pivots, ncols, ncols + 1)
    return [Fraction(-v, y[ncols]) for v in y[:ncols]]
