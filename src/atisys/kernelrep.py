"""Kernel representations with offsets, and their decision procedures.

A pair (R(x), c) represents the trajectory set {w : R(sigma) w = c}, where
sigma is the time shift.  Unlike the offset-free case, such a set can be
empty: every polynomial row dependency (syzygy) of R imposes a constraint on
c, and consistency holds exactly when all of them are met.  Everything here
runs in exact rational arithmetic; floating point enters only when a
representation is applied to measured data windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from . import exactla
from .errors import (
    DimensionMismatch,
    InconsistentRepresentation,
    WindowTooShort,
)
from .poly import Poly
from .polymatrix import PolyMatrix, clear_denominators, row_hermite, smith_form
from .trajectories import check_tolerance, window_matrix

OffsetVector = tuple[Fraction, ...]


def _as_offset(values) -> OffsetVector:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class AffineKernelRep:
    """Polynomial matrix R (g x q) with a constant offset vector c (length g)."""

    R: PolyMatrix
    c: OffsetVector

    def __post_init__(self):
        object.__setattr__(self, "c", _as_offset(self.c))
        if len(self.c) != self.R.shape[0]:
            raise DimensionMismatch(
                f"offset length {len(self.c)} != row count {self.R.shape[0]}"
            )

    @property
    def g(self) -> int:
        return self.R.shape[0]

    @property
    def q(self) -> int:
        return self.R.shape[1]

    @property
    def degree(self) -> int:
        return self.R.degree

    def offset_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.c])


@dataclass(frozen=True)
class OffsetSequence:
    """A general offset given on the window [1, T]: row t-1 holds c(t)."""

    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.values)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("offset samples have differing lengths")
        object.__setattr__(self, "values", rows)

    @classmethod
    def constant(cls, c: Sequence, length: int) -> "OffsetSequence":
        row = tuple(Fraction(v) for v in c)
        return cls(tuple(row for _ in range(length)))

    @property
    def length(self) -> int:
        return len(self.values)

    @property
    def g(self) -> int:
        return len(self.values[0]) if self.values else 0


def syzygy_basis(R: PolyMatrix) -> list[tuple[Poly, ...]]:
    """A minimal basis of the left syzygy module {lambda : lambda R = 0}.

    The rows of the row-Hermite transform U against the zero rows of U R
    span the syzygies, and as rows of a unimodular matrix they are left
    prime.  Made row proper by :func:`_row_proper`, they form a minimal
    basis in Forney's sense: the degrees are the smallest any basis can
    have.  Each generator is scaled to integer coefficients with content
    one.  Full-row-rank matrices return the empty list; the zero matrix
    returns the coordinate rows.

    The basis is computed once per matrix instance, on top of its memoised
    :func:`row_hermite` reduction, and kept on it.  Each call returns a
    fresh list of the shared generators, which are tuples of immutable
    :class:`Poly`, so a caller may change the list freely.
    """
    return list(R._memo("_syzygies", _minimal_syzygies))


def _minimal_syzygies(R: PolyMatrix) -> tuple[tuple[Poly, ...], ...]:
    reduction = row_hermite(R)
    rows = [list(reduction.U.rows[i]) for i in range(reduction.rank, R.shape[0])]
    return tuple(tuple(clear_denominators(row)) for row in _row_proper(rows))


def _row_degree(row: Sequence[Poly]) -> int:
    return max(e.degree for e in row)


def _row_proper(rows: list[list[Poly]]) -> list[list[Poly]]:
    """Make rows of full row rank row proper by unimodular row operations.

    While the leading row-coefficient matrix is rank deficient, a combination
    of rows cancels the leading terms of the highest-degree row in its
    support, strictly lowering that row's degree; the other rows enter with
    polynomial factors, so the rows keep spanning the same module.  On exit
    the leading row-coefficient matrix has full row rank.
    """
    rows = [list(r) for r in rows]
    while rows:
        degrees = [_row_degree(row) for row in rows]
        leading = [
            [e.coefficient(deg) for e in row] for row, deg in zip(rows, degrees)
        ]
        null = exactla.left_null_space(leading)
        if not null:
            break
        alpha = null[0]
        support = [i for i, a in enumerate(alpha) if a != 0]
        j = max(support, key=lambda i: degrees[i])
        scale = 1 / alpha[j]
        new_row = list(rows[j])
        for i in support:
            if i == j:
                continue
            shift = degrees[j] - degrees[i]
            factor = Poly([alpha[i] * scale]).shift(shift)
            new_row = [a + factor * b for a, b in zip(new_row, rows[i])]
        rows[j] = new_row
    return rows


class ConsistencyReport(NamedTuple):
    consistent: bool
    certified: bool
    syzygy_degree: int
    window_length: int


def consistent_constant(rep: AffineKernelRep) -> bool:
    """Whether a constant offset is attainable: lambda(1) c = 0 for all syzygies.

    A constant sequence is fixed by the shift, so each syzygy constraint
    lambda(sigma) c = 0 collapses to the scalar test at 1.  The rows of the
    row-Hermite transform U against the zero rows of U R span the syzygies
    (see :func:`syzygy_basis`), and lambda(1) c is linear in lambda, so it
    suffices that those rows pass: the entries of U(1) c below the rank
    vanish.  This needs the memoised reduction only, not a minimal basis.
    """
    reduction, offset = _reduced_offset(rep)
    return not any(offset[reduction.rank :])


def consistent_sequence(
    R: PolyMatrix, c: OffsetSequence, tol: float | None = None
) -> bool:
    return consistent_sequence_report(R, c, tol).consistent


def consistent_sequence_report(
    R: PolyMatrix, c: OffsetSequence, tol: float | None = None
) -> ConsistencyReport:
    """Finite-window consistency test for a general offset sequence.

    The window system stacks (R(sigma) w)(t) = c(t) for t = 1..T.  A left
    null vector y of its block-Toeplitz matrix is exactly a syzygy
    y(x) = sum_t y_t x^(t-1) of degree at most T-1, and the system is
    solvable when every such y annihilates c.  By the predictable-degree
    property of a minimal basis lambda_1..lambda_k with degrees delta_i
    (Forney 1975), those syzygies are exactly sum_i a_i lambda_i with
    deg a_i <= T-1-delta_i.  So the window is consistent exactly when

        sum_j lambda_i,j c(s+j) = 0  for every i and s = 1..T-delta_i,

    with lambda_i,j the coefficient of x^j in lambda_i: O(T * sum_i delta_i * g)
    exact operations, with no Toeplitz matrix built.  A solution on [1, T]
    restricts to every sub-window, so all shorter shifts inside the window
    are covered.  The verdict is certified (decides membership of any
    extension of c built from windows of this length at every shift) when T
    is at least one more than the maximal minimal degree, the reported
    ``syzygy_degree``; a finitely specified offset cannot certify more.

    The filter is exact by default, which treats the offsets as the exact
    rationals they encode.  With ``tol`` (positive, finite) it runs in
    floats, the right reading for measured offsets known only to float
    accuracy: a constraint counts as met when its residual is at most
    ``tol`` times the sum of the magnitudes of its terms.
    """
    if R.shape[0] != c.g:
        raise DimensionMismatch(f"offset width {c.g} != row count {R.shape[0]}")
    d = R.degree
    T = c.length
    if T < d + 1:
        raise WindowTooShort(f"window {T} shorter than degree bound {d + 1}")
    syz = syzygy_basis(R)
    if tol is None:
        scale = lcm(*(v.denominator for row in c.values for v in row))
        columns = [
            [v.numerator * (scale // v.denominator) for v in column]
            for column in zip(*c.values)
        ]
        consistent = all(not any(_filter(lam, columns, T)) for lam in syz)
    else:
        check_tolerance(tol)
        columns = np.array(c.values, dtype=float).T
        consistent = all(_within(lam, columns, T, tol) for lam in syz)
    delta = max((_row_degree(lam) for lam in syz), default=-1)
    return ConsistencyReport(
        consistent=consistent,
        certified=T >= delta + 1,
        syzygy_degree=delta,
        window_length=T,
    )


def _filter(lam: Sequence[Poly], columns: list[list[int]], T: int) -> list[int]:
    """sum_j lam_j . c(s+j) for s = 1..T-deg lam, on integer offset columns.

    The generator's coefficients are integers (content one), so the sums
    stay in Python integers.
    """
    n = T - _row_degree(lam)
    acc = [0] * max(n, 0)
    for e, column in zip(lam, columns):
        for j, a in enumerate(e.numerators):
            if a:
                acc = [x + a * y for x, y in zip(acc, column[j : j + n])]
    return acc


def _within(lam: Sequence[Poly], columns: np.ndarray, T: int, tol: float) -> bool:
    """Float residuals of the filter, each at most tol times the magnitude of its terms."""
    n = T - _row_degree(lam)
    if n <= 0:
        return True
    acc = np.zeros(n)
    size = np.zeros(n)
    for e, column in zip(lam, columns):
        for j, a in enumerate(e.numerators):
            if a:
                acc += float(a) * column[j : j + n]
                size += abs(float(a)) * np.abs(column[j : j + n])
    return bool(np.all(np.abs(acc) <= tol * size))


def minimize(rep: AffineKernelRep) -> AffineKernelRep:
    """Equivalent representation with full-row-rank R in canonical form.

    The unimodular reduction U R = [R1; 0] sends the offset to U(1) c; the
    entries against the zero rows must vanish, or the representation was
    inconsistent to begin with.
    """
    reduction, offset = _reduced_offset(rep)
    r = reduction.rank
    if any(offset[r:]):
        raise InconsistentRepresentation(
            "zero rows of the reduced matrix carry nonzero offsets"
        )
    return AffineKernelRep(reduction.H.take_rows(range(r)), tuple(offset[:r]))


def _reduced_offset(rep: AffineKernelRep):
    """The row-Hermite reduction of R and the offset U(1) c it sends c to."""
    reduction = row_hermite(rep.R)
    u_at_one = reduction.U.evaluate(Fraction(1))
    return reduction, [sum(u * v for u, v in zip(row, rep.c)) for row in u_at_one]


def equivalent(rep1: AffineKernelRep, rep2: AffineKernelRep) -> bool:
    """Whether two consistent representations define the same trajectory set.

    Both are reduced to the canonical minimal form; the canonical matrices
    are equal exactly when the offset-free row modules agree, and then the
    connecting unimodular transform is the identity, so the offsets must
    match entrywise.  Consistency is checked by the reduction itself: the
    rows of the Hermite transform U against the zero rows span the left
    syzygies, so their offsets U(1) c vanish exactly when
    :func:`consistent_constant` holds.
    """
    try:
        min1 = minimize(rep1)
        min2 = minimize(rep2)
    except InconsistentRepresentation:
        raise InconsistentRepresentation(
            "equivalence is defined for consistent representations"
        ) from None
    return rep1.q == rep2.q and min1.R == min2.R and min1.c == min2.c


def behavior_apply(rep: AffineKernelRep, window) -> np.ndarray:
    """Residuals of a data window against the representation, in floats.

    For a window w(1..L) with L >= deg R + 1, returns the (L - deg R) x g
    array with row t holding sum_k R_k w(t+k) - c.
    """
    w = np.asarray(getattr(window, "data", window), dtype=float)
    if w.ndim == 1:
        if rep.q != 1 and w.size % rep.q == 0:
            w = w.reshape(-1, rep.q)
        else:
            w = w.reshape(-1, 1)
    if w.shape[1] != rep.q:
        raise DimensionMismatch(f"window has {w.shape[1]} variables, expected {rep.q}")
    d = rep.degree
    L = w.shape[0]
    if L < d + 1:
        raise WindowTooShort(f"window {L} shorter than degree bound {d + 1}")
    # [R_0 ... R_d] @ (column t: w(t), ..., w(t+d) stacked) - c; each
    # coefficient is its numerator over the entry's denominator, rounded once
    blocks = np.zeros((rep.g, d + 1, rep.q))
    for i, row in enumerate(rep.R.rows):
        for j, e in enumerate(row):
            blocks[i, : len(e.numerators), j] = [n / e.denominator for n in e.numerators]
    stacked = blocks.reshape(rep.g, (d + 1) * rep.q)
    return (stacked @ window_matrix(w, d + 1)).T - rep.offset_floats()


def controllable_kernel(rep: AffineKernelRep) -> bool:
    """Constant-rank test: R(lambda) keeps full rank at every complex point.

    Decided exactly through the invariant factors of the minimized matrix;
    a non-constant factor vanishes somewhere, dropping the rank there.
    """
    reduced = minimize(rep)
    if reduced.g == 0:
        return True
    dec = smith_form(reduced.R)
    return all(f.is_constant for f in dec.invariant_factors)


def lag_of(rep: AffineKernelRep) -> int:
    """Minimal degree over all representations of the same trajectory set.

    Minimizes, then makes the rows proper (:func:`_row_proper`).  The
    maximal row degree of the row-proper form is the lag.
    """
    reduced = minimize(rep)
    if reduced.g == 0:
        return 0
    return max(_row_degree(row) for row in _row_proper(reduced.R.rows))
