"""Matrices over the univariate rational polynomials.

Provides rank and determinant over the rational-function field, and the
Smith decomposition and canonical row-Hermite reduction with their
unimodular transforms, which the CLI ``smith`` and the tests use; the
kernel-representation procedures run on a reduction of their own
(:mod:`atisys.kernelrep`).  Pivoting always selects a minimum-degree nonzero
entry, which keeps intermediate degrees small at the scale these matrices
have.  Every reduction tracks its transform in identity columns: it runs on
the rows of [M | I] (the Smith form on [M | I] over [I | 0], so that its
column operations build V below M).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ZeroMatrix
from .poly import Poly, _as_poly


class PolyMatrix:
    """Immutable rectangular grid of :class:`Poly` entries.

    Each instance also holds its kernel-representation reduction once
    something has asked for it (``_reduced``, see :mod:`atisys.kernelrep`), so
    every exact decision on one matrix pays for that reduction once.  It is
    private, never compared, hashed or copied, and lives only as long as the
    matrix.
    """

    __slots__ = ("rows", "_ncols", "_reduced")

    def __init__(self, rows: Iterable[Iterable], ncols: int = 0):
        grid = tuple(tuple(_as_poly(e) for e in row) for row in rows)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise DimensionMismatch("rows have differing lengths")
        object.__setattr__(self, "rows", grid)
        object.__setattr__(self, "_ncols", len(grid[0]) if grid else ncols)
        object.__setattr__(self, "_reduced", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __reduce__(self):
        # copies and pickles rebuild from the entries alone, without the memo
        return (PolyMatrix, (self.rows, self._ncols))

    def _memo(self, reduce):
        """``reduce(self)``, computed on first use and kept in ``_reduced``."""
        if self._reduced is None:
            object.__setattr__(self, "_reduced", reduce(self))
        return self._reduced

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, g: int, q: int) -> "PolyMatrix":
        return cls([[Poly.zero()] * q for _ in range(g)], ncols=q)

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls([[Poly.one() if i == j else Poly.zero() for j in range(n)] for i in range(n)])

    @classmethod
    def from_coefficient_blocks(cls, blocks: Sequence[Sequence[Sequence]]) -> "PolyMatrix":
        """Build R(x) = sum_k blocks[k] * x**k from same-shaped grids or a 3-D array."""
        if len(blocks) == 0:
            raise ZeroMatrix("at least one coefficient block is required")
        g = len(blocks[0])
        q = len(blocks[0][0]) if g else 0
        return cls([[Poly([block[i][j] for block in blocks]) for j in range(q)] for i in range(g)])

    # -- structure ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self._ncols)

    @property
    def degree(self) -> int:
        """Largest entry degree; 0 for a matrix with no nonzero entry."""
        return max(max((e.degree for row in self.rows for e in row), default=0), 0)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.rows for e in row)

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def coefficient_block(self, k: int) -> list[list[Fraction]]:
        return [[e.coefficient(k) for e in row] for row in self.rows]

    def coefficient_blocks(self) -> list[list[list[Fraction]]]:
        return [self.coefficient_block(k) for k in range(self.degree + 1)]

    def evaluate(self, value) -> list[list]:
        """Entrywise evaluation; exact for Fraction/int arguments."""
        return [[e(value) for e in row] for row in self.rows]

    def transpose(self) -> "PolyMatrix":
        g, q = self.shape
        return PolyMatrix([[self.rows[i][j] for i in range(g)] for j in range(q)], ncols=g)

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add shapes {self.shape} and {other.shape}")
        return PolyMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self._ncols,
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract shapes {self.shape} and {other.shape}")
        return PolyMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self._ncols,
        )

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        g, k = self.shape
        k2, q = other.shape
        if k != k2:
            raise DimensionMismatch(f"cannot multiply shapes {self.shape} and {other.shape}")
        out = []
        for i in range(g):
            row = []
            for j in range(q):
                acc = Poly.zero()
                for t in range(k):
                    if not self.rows[i][t].is_zero and not other.rows[t][j].is_zero:
                        acc = acc + self.rows[i][t] * other.rows[t][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out, ncols=q)

    def scale(self, value) -> "PolyMatrix":
        factor = _as_poly(value)
        rows = [[e * factor for e in row] for row in self.rows]
        return PolyMatrix(rows, ncols=self._ncols)

    def vstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape[1] != other.shape[1]:
            raise DimensionMismatch("column counts differ")
        return PolyMatrix(list(self.rows) + list(other.rows), ncols=self._ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)
        return f"PolyMatrix([{body}])"

    # -- exact decisions ----------------------------------------------

    def _bareiss(self) -> tuple[int, int, Poly]:
        """Fraction-free forward elimination (Bareiss 1968).

        Below and right of a minimum-degree pivot, a_ij becomes
        (pivot * a_ij - a_ic * a_rj) / previous pivot; every entry is then a
        minor of the input, so the division is exact.  Returns the rank, the
        sign of the row permutation and the last pivot (+-det when nonsingular).
        """
        g, q = self.shape
        M = [list(row) for row in self.rows]
        prev = Poly.one()
        sign = 1
        r = 0
        for col in range(q):
            if r == g:
                break
            candidates = [i for i in range(r, g) if not M[i][col].is_zero]
            if not candidates:
                continue
            best = min(candidates, key=lambda i: M[i][col].degree)
            if best != r:
                M[r], M[best] = M[best], M[r]
                sign = -sign
            top = M[r]
            pivot = top[col]
            for i in range(r + 1, g):
                row = M[i]
                factor = row[col]
                for j in range(col + 1, q):
                    e = pivot * row[j]
                    if not factor.is_zero and not top[j].is_zero:
                        e = e - factor * top[j]
                    row[j] = e.exact_div(prev)
            prev = pivot
            r += 1
        return r, sign, prev

    def rank(self) -> int:
        """Rank over the rational-function field."""
        return self._bareiss()[0]

    def determinant(self) -> Poly:
        g, q = self.shape
        if g != q:
            raise DimensionMismatch("determinant requires a square matrix")
        rank, sign, last_pivot = self._bareiss()
        if rank < g:
            return Poly.zero()
        return last_pivot if sign > 0 else -last_pivot

    def is_unimodular(self) -> bool:
        g, q = self.shape
        if g != q:
            return False
        d = self.determinant()
        return d.is_constant and not d.is_zero


def poly_rank(matrix: PolyMatrix) -> int:
    return matrix.rank()


def identity_augmented(matrix: PolyMatrix) -> list[list[Poly]]:
    """The rows of [M | I] as lists: row operations on them build, in the
    identity columns, the transform that applies them to M."""
    one, zero = Poly.one(), Poly.zero()
    g = matrix.shape[0]
    return [
        [*row, *(one if i == j else zero for j in range(g))]
        for i, row in enumerate(matrix.rows)
    ]


def subtract_multiple(row: list[Poly], factor: Poly, other: Sequence[Poly]) -> list[Poly]:
    """row - factor * other, passing over the entries where other is zero."""
    return [a - factor * b if b else a for a, b in zip(row, other)]


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V and monic invariant factors with U R V = diag(D)."""

    U: PolyMatrix
    V: PolyMatrix
    invariant_factors: tuple[Poly, ...]
    shape: tuple[int, int]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def diagonal(self) -> PolyMatrix:
        g, q = self.shape
        rows = [[Poly.zero()] * q for _ in range(g)]
        for k, d in enumerate(self.invariant_factors):
            rows[k][k] = d
        return PolyMatrix(rows)


def smith_form(matrix: PolyMatrix) -> SmithDecomposition:
    """Exact Smith decomposition with the divisibility chain d_i | d_{i+1}.

    Raises :class:`ZeroMatrix` for the all-zero matrix, whose decomposition
    carries no invariant factors.
    """
    if matrix.is_zero:
        raise ZeroMatrix("the zero matrix has no Smith pivots")
    g, q = matrix.shape
    # [M | I_g] over [I_q | 0]: row operations build U beside M, column
    # operations build V below it
    M = identity_augmented(matrix) + [
        [*row, *[Poly.zero()] * g] for row in PolyMatrix.identity(q).rows
    ]
    minus_one = Poly.constant(-1)

    def row_swap(i, j):
        if i != j:
            M[i], M[j] = M[j], M[i]

    def col_swap(i, j):
        if i != j:
            for row in M:
                row[i], row[j] = row[j], row[i]

    def col_sub(j, k, quo):
        for row in M:
            if row[k]:
                row[j] = row[j] - quo * row[k]

    rank = 0
    for k in range(min(g, q)):
        best = None
        for i in range(k, g):
            for j in range(k, q):
                e = M[i][j]
                if not e.is_zero and (best is None or e.degree < M[best[0]][best[1]].degree):
                    best = (i, j)
        if best is None:
            break
        row_swap(k, best[0])
        col_swap(k, best[1])
        while True:
            restart = False
            for i in range(g):
                if i != k and not M[i][k].is_zero:
                    quo, rem = divmod(M[i][k], M[k][k])
                    M[i] = subtract_multiple(M[i], quo, M[k])
                    if not rem.is_zero:
                        row_swap(i, k)
                        restart = True
                        break
            if restart:
                continue
            for j in range(q):
                if j != k and not M[k][j].is_zero:
                    quo, rem = divmod(M[k][j], M[k][k])
                    col_sub(j, k, quo)
                    if not rem.is_zero:
                        col_swap(j, k)
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for a in range(k + 1, g):
                for b in range(k + 1, q):
                    if not M[k][k].divides(M[a][b]):
                        offender = a
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # pull a non-divisible entry into the pivot row and keep reducing
            M[k] = subtract_multiple(M[k], minus_one, M[offender])
        rank += 1

    for k in range(rank):
        lead = M[k][k].leading_coefficient
        if lead != 1:
            M[k] = [e.scale(1 / lead) for e in M[k]]
    U = PolyMatrix([row[q:] for row in M[:g]])
    V = PolyMatrix([row[:q] for row in M[g:]])
    return SmithDecomposition(U, V, tuple(M[k][k] for k in range(rank)), matrix.shape)


@dataclass(frozen=True)
class RowHermite:
    """Canonical staircase form H = U R with tracked unimodular transforms."""

    H: PolyMatrix
    U: PolyMatrix
    pivot_columns: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_columns)

    @property
    def U_inverse(self) -> PolyMatrix:
        """The inverse of U, computed on each access.

        U is unimodular, so its canonical form is the identity and the
        transform that reduces it is U's inverse.
        """
        return row_hermite(self.U).U


def row_hermite(matrix: PolyMatrix) -> RowHermite:
    """Reduce to the canonical row-Hermite form using unimodular row ops.

    Pivots are monic, entries above a pivot have degree strictly below the
    pivot's, nonzero rows come first in staircase order.  Full-row-rank
    matrices with equal row modules reduce to the identical canonical form.
    """
    g, q = matrix.shape
    M = identity_augmented(matrix)

    pr = 0
    pivots = []
    for col in range(q):
        while True:
            candidates = [i for i in range(pr, g) if not M[i][col].is_zero]
            if not candidates:
                break
            best = min(candidates, key=lambda i: M[i][col].degree)
            M[best], M[pr] = M[pr], M[best]
            clean = True
            for i in range(pr + 1, g):
                if not M[i][col].is_zero:
                    quo, rem = divmod(M[i][col], M[pr][col])
                    M[i] = subtract_multiple(M[i], quo, M[pr])
                    if not rem.is_zero:
                        clean = False
            if clean:
                break
        if pr < g and not M[pr][col].is_zero:
            pivots.append(col)
            pr += 1
            if pr == g:
                break
    # canonical normalization: monic pivots, reduced entries above
    for r, col in enumerate(pivots):
        lead = M[r][col].leading_coefficient
        if lead != 1:
            M[r] = [e.scale(1 / lead) for e in M[r]]
        for i in range(r):
            if not M[i][col].is_zero and M[i][col].degree >= M[r][col].degree:
                M[i] = subtract_multiple(M[i], M[i][col] // M[r][col], M[r])
    H = PolyMatrix([row[:q] for row in M])
    return RowHermite(H, PolyMatrix([row[q:] for row in M]), tuple(pivots))


def clear_denominators(polys: Sequence[Poly]) -> list[Poly]:
    """Scale a row of polynomials to integer coefficients with content 1."""
    den = lcm(*(p.denominator for p in polys))
    rows = [[n * (den // p.denominator) for n in p.numerators] for p in polys]
    content = gcd(*(n for row in rows for n in row)) or 1
    return [Poly.from_numerators([n // content for n in row]) for row in rows]
