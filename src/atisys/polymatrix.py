"""Matrices over the univariate rational polynomials.

Provides the Smith decomposition with its unimodular transforms (for the CLI
``smith``) and the weak Popov reduction behind the rank, the unimodularity
test and every exact kernel decision of :mod:`atisys.kernelrep`.  Both run
fraction-free (Beckermann, Labahn & Villard, J. Symbolic Comput. 41(6),
2006) on the rows of [M | I] as integer coefficient lists over one positive
denominator per row (:func:`_augmented`), so row operations build their
transform in the identity columns.  A step is a·row - f·other (a > 0), f
from the pseudo-division of :meth:`Poly.__divmod__`, and one content
division; :class:`Poly` objects are built only for the results.

The Smith form keeps each row's denominator, so a row is its rational row in
lowest terms, and stacks [I | 0] below, so that column operations build V.
Its pivot is the first nonzero entry of least degree in row-major order,
which keeps intermediate degrees small at the scale these matrices have.
Each pivot then repeats the first of three steps that acts, until none does:
clear its column by division (a nonzero remainder becomes the pivot), clear
its row the same way by column operations, or add to the pivot row the first
trailing row holding an entry that the pivot does not divide.

The weak Popov reduction (Mulders & Storjohann, J. Symbolic Comput. 35(4),
2003) drops the denominators, so each row is the primitive positive multiple
of its rational row, and reduces until no two nonzero M parts lead at one
position.  The surviving M parts are then made Popov, canonical for their
row module (Kailath, *Linear Systems*, 1980), and the I parts of the rows
whose M part vanished span the left syzygies of M.
:meth:`PolyMatrix.popov_reduction` returns it as a :class:`PopovReduction`
and keeps it with the matrix (``_reduced``, private, never compared, hashed
or copied, also written by :mod:`atisys.kernelrep`), so every exact decision
on one matrix pays for it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, ZeroMatrix, _count
from .poly import Poly, _as_poly, _pseudo_divide


class PolyMatrix:
    """Immutable rectangular grid of :class:`Poly` entries, with the memo of
    its weak Popov reduction (module docstring)."""

    __slots__ = ("rows", "_ncols", "_reduced")

    def __init__(self, rows: Iterable[Iterable], ncols: int = 0):
        grid = tuple(tuple(_as_poly(e) for e in row) for row in rows)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise DimensionMismatch("rows have differing lengths")
        object.__setattr__(self, "rows", grid)
        object.__setattr__(self, "_ncols", len(grid[0]) if grid else _count(ncols, "ncols"))
        object.__setattr__(self, "_reduced", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __reduce__(self):
        # copies and pickles rebuild from the entries alone, without the memo
        return (PolyMatrix, (self.rows, self._ncols))

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, g: int, q: int) -> "PolyMatrix":
        return cls([[Poly.zero()] * _count(q, "columns") for _ in range(_count(g, "rows"))], ncols=q)

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        n = _count(n, "n")
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
        k = _count(k, "k")
        return [[e.coefficient(k) for e in row] for row in self.rows]

    def coefficient_blocks(self) -> list[list[list[Fraction]]]:
        return [self.coefficient_block(k) for k in range(self.degree + 1)]

    def evaluate(self, value) -> list[list]:
        """Entrywise evaluation at an exact value, read by :mod:`atisys.poly`'s rule."""
        return [[e(value) for e in row] for row in self.rows]

    def transpose(self) -> "PolyMatrix":
        g, q = self.shape
        return PolyMatrix([[self.rows[i][j] for i in range(g)] for j in range(q)], ncols=g)

    # -- algebra ------------------------------------------------------

    def _combine(self, other: "PolyMatrix", sign: int) -> "PolyMatrix":
        """self + sign * other, entry by entry."""
        if self.shape != other.shape:
            verb = "add" if sign > 0 else "subtract"
            raise DimensionMismatch(f"cannot {verb} shapes {self.shape} and {other.shape}")
        return PolyMatrix(
            [[a._combine(b, sign) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self._ncols,
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._combine(other, -1)

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

    def rank(self) -> int:
        """Rank over the rational-function field: the rows of a weak Popov form that stay nonzero."""
        return sum(d >= 0 for d in self.weak_popov_degrees())

    def is_unimodular(self) -> bool:
        """Square with every weak Popov row degree 0: the form is then
        nonsingular, and its determinant has degree the sum of those degrees."""
        g, q = self.shape
        return g == q and all(d == 0 for d in self.weak_popov_degrees())

    def popov_reduction(self) -> "PopovReduction":
        """The weak Popov reduction of [M | I], computed on first use and kept."""
        if self._reduced is None:
            object.__setattr__(self, "_reduced", _reduce(self))
        return self._reduced

    def weak_popov_degrees(self) -> tuple[int, ...]:
        """The row degrees of a weak Popov form of M, -1 for a row that vanished."""
        rows = [_primitive(row[: self._ncols]) for row in _augmented(self)]
        _weak_popov(rows, self._ncols)
        return tuple(max(map(len, row), default=0) - 1 for row in rows)


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
    # [M | I_g] over [I_q | 0]: rows build U beside M, columns build V below it
    below = [[[1] if i == j else [] for j in range(q + g)] + [[1]] for i in range(q)]
    rows = _augmented(matrix) + below
    rank = _smith(rows, g, q)
    for k in range(rank):  # monic pivots: each pivot row over its pivot's leading numerator
        lead = rows[k][k][-1]
        rows[k] = [[v if lead > 0 else -v for v in e] for e in rows[k][:-1]] + [[abs(lead)]]

    def polys(block, part):
        return [[Poly.from_numerators(e, row[-1][0]) for e in row[part]] for row in block]

    factors = tuple(Poly.from_numerators(row[k], row[-1][0]) for k, row in enumerate(rows[:rank]))
    U, V = polys(rows[:g], slice(q, -1)), polys(rows[g:], slice(q))
    return SmithDecomposition(PolyMatrix(U), PolyMatrix(V), factors, matrix.shape)


def _smith(rows: list[list[list[int]]], g: int, q: int) -> int:
    """Diagonalize the first g rows and q columns of rows over their
    denominators in place, by the module's Smith steps; column operations
    act on every row.  Returns the rank."""

    def col_swap(i, j):
        for row in rows:
            row[i], row[j] = row[j], row[i]

    for k in range(min(g, q)):
        # the pivot: the first nonzero entry of least degree, in row-major order
        nonzero = [(len(rows[i][j]), i, j) for i in range(k, g) for j in range(k, q) if rows[i][j]]
        if not nonzero:
            return k
        _, i, j = min(nonzero)
        rows[k], rows[i] = rows[i], rows[k]
        col_swap(k, j)
        while True:
            pivot = rows[k]
            i = next((i for i in range(g) if i != k and rows[i][k]), None)
            if i is not None:  # clear column k; a remainder becomes the pivot
                s, Q, _ = _pseudo_divide(rows[i][k], pivot[k])
                rows[i] = _subtract(rows[i], s, Q, pivot[:-1] + [[]])
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                continue
            j = next((j for j in range(q) if j != k and pivot[j]), None)
            if j is not None:  # clear row k by column operations, likewise
                s, Q, _ = _pseudo_divide(pivot[j], pivot[k])
                for r, row in enumerate(rows):
                    if row[k]:
                        other = [[]] * len(row)
                        other[j] = row[k]
                        rows[r] = _subtract(row, s, Q, other)
                if rows[k][j]:
                    col_swap(k, j)
                continue
            if len(pivot[k]) == 1:  # a constant pivot divides every entry
                break
            trailing = ((a, b) for a in range(k + 1, g) for b in range(k + 1, q))
            a = next((a for a, b in trailing if any(_pseudo_divide(rows[a][b], pivot[k])[2])), None)
            if a is None:
                break
            # pull a non-divisible entry into the pivot row and reduce again
            rows[k] = _subtract(pivot, rows[a][-1][0], [-pivot[-1][0]], rows[a][:-1] + [[]])
    return min(g, q)


class PopovReduction(NamedTuple):
    """The weak Popov reduction U [M | I] (module docstring): the nonzero rows
    of U M in Popov form, and the rows of U against the zero rows of U M
    (the syzygies), integral with content one."""

    popov: tuple[tuple[Poly, ...], ...]
    syzygies: tuple[tuple[Poly, ...], ...]


def _reduce(matrix: PolyMatrix) -> PopovReduction:
    q = matrix.shape[1]
    rows = [_primitive(row[:-1]) for row in _augmented(matrix)]
    _weak_popov(rows, q)
    kept = _popov([row for row in rows if any(row[:q])], q)
    return PopovReduction(
        popov=tuple(tuple(Poly.from_numerators(e, lead) for e in row[:q]) for lead, row in kept),
        syzygies=tuple(
            tuple(Poly.from_numerators(e) for e in row[q:]) for row in rows if not any(row[:q])
        ),
    )


def _augmented(matrix: PolyMatrix) -> list[list[list[int]]]:
    """The rows of [M | I] as coefficient lists, each followed by its one
    positive denominator: the rational rows in lowest terms."""
    g = matrix.shape[0]
    rows = []
    for i, polys in enumerate(matrix.rows):
        den = lcm(*(p.denominator for p in polys))
        row = [[n * (den // p.denominator) for n in p.numerators] for p in polys]
        rows.append(row + [[den] if i == j else [] for j in range(g)] + [[den]])
    return rows


def _primitive(row: list[list[int]]) -> list[list[int]]:
    content = 0
    for e in row:  # most rows reach content one within a few entries
        if (content := gcd(content, *e)) == 1:
            return row
    return [[v // content for v in e] for e in row] if content else row


def _subtract(row: list[list[int]], a: int, factor: list[int], other: list[list[int]]) -> list[list[int]]:
    """a·row - factor·other (a > 0, factor a coefficient list) over its content."""
    out = []
    for e, f in zip(row, other):
        if f:
            e = [a * v for v in e] + [0] * (len(factor) + len(f) - 1 - len(e))
            for s, c in enumerate(factor):
                if c:
                    for t, v in enumerate(f):
                        e[s + t] -= c * v
            while e and not e[-1]:
                e.pop()
        elif a != 1 and e:
            e = [a * v for v in e]
        out.append(e)
    return _primitive(out)


def _leading(row: list[list[int]], width: int) -> tuple[int, int] | None:
    """Degree and position of the rightmost entry of maximal degree among the
    first ``width`` entries, or among the rest once those are zero."""
    for start, stop in ((0, width), (width, len(row))):
        sizes = list(map(len, row[start:stop]))
        if size := max(sizes, default=0):
            return size - 1, stop - 1 - sizes[::-1].index(size)
    return None


def _weak_popov(rows: list[list[list[int]]], width: int) -> None:
    """Reduce integer rows in place until no two nonzero rows lead at one position.

    Of two rows leading at one position, the one of higher degree becomes
    a·row - b·x^s·other, a/b the other's leading coefficient over its own in
    lowest terms, a > 0: its degree drops or its leading position moves left,
    and no degree grows.  On exit the nonzero rows are row reduced.
    """
    lead = [_leading(row, width) for row in rows]
    owner: dict[int, int] = {}
    for i in range(len(rows)):
        while lead[i] is not None:
            j = lead[i][1]
            k = owner.setdefault(j, i)
            if k == i:
                break
            if lead[k][0] > lead[i][0]:  # the owner is the one to reduce
                owner[j], i, k = i, k, i
            a, b = rows[k][j][-1], rows[i][j][-1]
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            monomial = [0] * (lead[i][0] - lead[k][0]) + [b // g]
            rows[i] = _subtract(rows[i], a // g, monomial, rows[k])
            lead[i] = _leading(rows[i], width)


def _popov(rows: list[list[list[int]]], width: int) -> list[tuple[int, list[list[int]]]]:
    """Weak Popov rows made Popov: each row becomes s·row - Q·other, s·A = Q·B + R
    pseudo-dividing its entry A by the leading entry B of the first other row
    that still reduces it, until none does (the terms brought in lie below
    those cancelled, so every leading entry stays).  Returned sorted by
    leading position, each with its leading coefficient made positive."""
    lead = [_leading(row, width) for row in rows]
    for i in range(len(rows)):
        while True:
            # the first other row whose leading position still reduces row i
            k = next((k for k, (d, j) in enumerate(lead) if k != i and len(rows[i][j]) > d), None)
            if k is None:
                break
            j = lead[k][1]
            s, quotient, _ = _pseudo_divide(rows[i][j], rows[k][j])
            rows[i] = _subtract(rows[i], s, quotient, rows[k])
    kept = []
    for (_, j), row in sorted(zip(lead, rows), key=lambda pair: pair[0][1]):
        if row[j][-1] < 0:
            row = [[-v for v in e] for e in row]
        kept.append((row[j][-1], row))
    return kept
