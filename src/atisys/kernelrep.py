"""Kernel representations with offsets, and their decision procedures.

A pair (R(x), c) represents the trajectory set {w : R(sigma) w = c}, where
sigma is the time shift.  Unlike the offset-free case, such a set can be
empty: every polynomial row dependency (syzygy) of R imposes a constraint on
c, and consistency holds exactly when all of them are met.  Every decision
reads one reduction of [R | I] to Popov form, kept with R (:func:`_reduce`).
Everything here runs in exact rational arithmetic; floating point enters
only when a representation is applied to measured data windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentRepresentation,
    WindowTooShort,
)
from .poly import Poly, _fraction
from .polymatrix import PolyMatrix, clear_denominators, identity_augmented, subtract_multiple
from .trajectories import check_tolerance, window_matrix

OffsetVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class AffineKernelRep:
    """Polynomial matrix R (g x q) with a constant offset vector c (length g)."""

    R: PolyMatrix
    c: OffsetVector

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(_fraction(v) for v in self.c))
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
        rows = tuple(tuple(_fraction(v) for v in row) for row in self.values)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("offset samples have differing lengths")
        object.__setattr__(self, "values", rows)

    @classmethod
    def constant(cls, c: Sequence, length: int) -> "OffsetSequence":
        return cls([tuple(c)] * length)

    @property
    def length(self) -> int:
        return len(self.values)

    @property
    def g(self) -> int:
        return len(self.values[0]) if self.values else 0


def syzygy_basis(R: PolyMatrix) -> list[tuple[Poly, ...]]:
    """A minimal basis of the left syzygy module {lambda : lambda R = 0}.

    The I parts of the rows of the reduced [R | I] (:func:`_reduce`) whose R
    part vanished are rows of a unimodular transform, so they span the
    syzygies and are left prime; being row reduced, they form a minimal basis
    in Forney's sense.  Each generator is scaled to integer coefficients with
    content one.  Full-row-rank matrices return the empty list; the zero
    matrix returns the coordinate rows.  Each call returns a fresh list.
    """
    *_, syzygies = R._memo(_reduce)
    return list(syzygies)


def _reduce(R: PolyMatrix) -> tuple:
    """The weak Popov reduction of [R | I], with the surviving R parts made Popov.

    Returns those R parts in Popov form, canonical for their row module
    (Kailath, *Linear Systems*, 1980), their I parts at 1, which send an
    offset c to theirs, and the I parts of the rows whose R part vanished.
    """
    q = R.shape[1]
    rows = identity_augmented(R)
    _weak_popov(rows, q)
    kept = _popov([row for row in rows if any(row[:q])], q)
    popov = tuple(tuple(row[:q]) for row in kept)
    at_one = tuple(tuple(e(1) for e in row[q:]) for row in kept)
    syzygies = tuple(tuple(clear_denominators(row[q:])) for row in rows if not any(row[:q]))
    return popov, at_one, syzygies


def _leading(row: Sequence[Poly], width: int) -> tuple[int, int] | None:
    """Degree and position of the rightmost entry of maximal degree among the
    first ``width`` entries, or among the rest once those are zero."""
    for part in (range(width), range(width, len(row))):
        degree = max((row[j].degree for j in part), default=-1)
        if degree >= 0:
            return degree, max(j for j in part if row[j].degree == degree)
    return None


def _weak_popov(rows: list[list[Poly]], width: int) -> None:
    """Reduce rows in place until no two nonzero rows lead at one position.

    Mulders & Storjohann, "On lattice reduction for polynomial matrices"
    (J. Symbolic Comput. 35(4), 2003): of two rows leading at one position,
    the one of higher degree loses its leading term to a monomial multiple of
    the other, so its degree drops or its leading position moves left, and no
    degree grows.  On exit the nonzero rows are row reduced.
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
            factor = rows[i][j].leading_coefficient / rows[k][j].leading_coefficient
            monomial = Poly.x(lead[i][0] - lead[k][0]).scale(factor)
            rows[i] = subtract_multiple(rows[i], monomial, rows[k])
            lead[i] = _leading(rows[i], width)


def _popov(rows: list[list[Poly]], width: int) -> list[list[Poly]]:
    """Weak Popov rows made Popov: each row reduced modulo the others' leading
    entries (the terms brought in lie below those cancelled, so every leading
    entry stays), then scaled monic and sorted by leading position."""
    lead = [_leading(row, width) for row in rows]
    for i in range(len(rows)):
        reducible = True
        while reducible:
            reducible = False
            for k, (d, j) in enumerate(lead):
                if k != i and rows[i][j].degree >= d:
                    quo = rows[i][j] // rows[k][j]
                    rows[i] = subtract_multiple(rows[i], quo, rows[k])
                    reducible = True
    return [
        [e.scale(1 / row[j].leading_coefficient) for e in row]
        for (_, j), row in sorted(zip(lead, rows), key=lambda pair: pair[0][1])
    ]


def _row_degree(row: Sequence[Poly]) -> int:
    return max((e.degree for e in row), default=-1)


class ConsistencyReport(NamedTuple):
    consistent: bool
    certified: bool
    syzygy_degree: int
    window_length: int


def consistent_constant(rep: AffineKernelRep) -> bool:
    """Whether a constant offset is attainable: lambda(1) c = 0 for all syzygies.

    A constant sequence is fixed by the shift, so each syzygy constraint
    lambda(sigma) c = 0 collapses to the scalar test at 1, and lambda(1) c is
    linear in lambda, so it suffices that the generators of
    :func:`syzygy_basis` pass.
    """
    return not any(sum(e(1) * v for e, v in zip(lam, rep.c)) for lam in syzygy_basis(rep.R))


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
    """Equivalent representation with full-row-rank R in canonical (Popov) form.

    The reduction U [R | I] of :func:`_reduce` sends the offset to U(1) c;
    the entries against the rows whose R part vanished, lambda(1) c, must
    vanish, or the representation was inconsistent to begin with.
    """
    if not consistent_constant(rep):
        raise InconsistentRepresentation(
            "zero rows of the reduced matrix carry nonzero offsets"
        )
    popov, at_one, _ = rep.R._memo(_reduce)
    offset = tuple(sum(u * v for u, v in zip(row, rep.c)) for row in at_one)
    return AffineKernelRep(PolyMatrix(popov, ncols=rep.q), offset)


def equivalent(rep1: AffineKernelRep, rep2: AffineKernelRep) -> bool:
    """Whether two consistent representations define the same trajectory set.

    Both are reduced to the canonical minimal (Popov) form; the canonical
    matrices are equal exactly when the offset-free row modules agree, and
    then the connecting unimodular transform is the identity, so the offsets
    must match entrywise.  :func:`minimize` rejects inconsistent inputs.
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

    The minimized R (r x q) does so exactly when its columns span every
    polynomial r-vector.  The weak Popov reduction of its transpose leaves r
    row-reduced rows, whose determinant's degree is the sum of their degrees,
    so that holds exactly when every such row has degree 0.
    """
    reduced = minimize(rep)
    rows = [list(row) for row in reduced.R.transpose().rows]
    _weak_popov(rows, reduced.g)
    return all(_row_degree(row) <= 0 for row in rows)


def lag_of(rep: AffineKernelRep) -> int:
    """Minimal degree over all representations of the same trajectory set.

    The Popov form of :func:`minimize` is row reduced, so its maximal row
    degree is the lag.
    """
    return max((_row_degree(row) for row in minimize(rep).R.rows), default=0)
