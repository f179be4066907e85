"""Kernel representations with offsets, and their decision procedures.

A pair (R(x), c) represents the trajectory set {w : R(sigma) w = c}, where
sigma is the time shift.  Unlike the offset-free case, such a set can be
empty: every polynomial row dependency (syzygy) of R imposes a constraint on
c, and consistency holds exactly when all of them are met.  R w = c is the
slice v = 1 of the linear laws (sigma - 1) v = 0 and R w - c v = 0, so every
decision on a constant offset reads one weak Popov reduction
(:mod:`atisys.polymatrix`) of [sigma - 1, 0; -c, R | I], v first, kept as the
minimal form of :func:`minimize`; a consistent pair also leaves R its syzygies.
Everything here runs in exact rational arithmetic; floating point enters
only when a representation is applied to measured data windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentRepresentation,
    NonFiniteEntry,
    WindowTooShort,
    _count,
)
from .poly import Poly, _fraction
from .polymatrix import PolyMatrix, PopovReduction
from .trajectories import window_matrix

OffsetVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class AffineKernelRep:
    """Polynomial matrix R (g x q) with a constant offset vector c (length g),
    and the kept result of :func:`minimize` (never compared, hashed or copied)."""

    R: PolyMatrix
    c: OffsetVector
    _minimal: "AffineKernelRep | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(_fraction(v) for v in self.c))
        if len(self.c) != self.R.shape[0]:
            raise DimensionMismatch(
                f"offset length {len(self.c)} != row count {self.R.shape[0]}"
            )

    def __reduce__(self):  # copies and pickles rebuild from R and c alone
        return (AffineKernelRep, (self.R, self.c))

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
        return cls([tuple(c)] * _count(length, "length"))

    @property
    def length(self) -> int:
        return len(self.values)

    @property
    def g(self) -> int:
        return len(self.values[0]) if self.values else 0


def syzygy_basis(R: PolyMatrix) -> list[tuple[Poly, ...]]:
    """A minimal basis of the left syzygy module {lambda : lambda R = 0}.

    The I parts of the rows of the reduced [R | I]
    (:meth:`PolyMatrix.popov_reduction`) whose R part vanished are rows of a
    unimodular transform, so they span the syzygies and are left prime; being
    row reduced, they form a minimal basis in Forney's sense.  Each generator
    is scaled to integer coefficients with content one.  Full-row-rank
    matrices return the empty list; the zero matrix returns the coordinate
    rows.  Each call returns a fresh list.
    """
    return list(R.popov_reduction().syzygies)


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
    lambda(sigma) c = 0 collapses to the scalar test at 1.  The laws of the
    module docstring hold [-lambda(1) c, 0] modulo sigma - 1 for every syzygy,
    so their Popov row leading at v is sigma - 1 exactly when all of these vanish.
    """
    return _minimal_form(rep) is not None


def consistent_sequence(R: PolyMatrix, c: OffsetSequence) -> bool:
    return consistent_sequence_report(R, c).consistent


def consistent_sequence_report(R: PolyMatrix, c: OffsetSequence) -> ConsistencyReport:
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
    """
    if R.shape[0] != c.g:
        raise DimensionMismatch(f"offset width {c.g} != row count {R.shape[0]}")
    d = R.degree
    T = c.length
    if T < d + 1:
        raise WindowTooShort(f"window {T} shorter than degree bound {d + 1}")
    syz = syzygy_basis(R)
    scale = lcm(*(v.denominator for row in c.values for v in row))
    columns = [
        [v.numerator * (scale // v.denominator) for v in column] for column in zip(*c.values)
    ]
    consistent = all(not any(_filter(lam, columns, T)) for lam in syz)
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


def minimize(rep: AffineKernelRep) -> AffineKernelRep:
    """Equivalent representation with full-row-rank R in canonical (Popov) form.

    The Popov rows of the laws (module docstring) other than sigma - 1 are
    [-c_min, R_min]: each v entry lies below the degree of sigma - 1.  The
    result is kept with ``rep``; an inconsistent ``rep`` raises on every call.
    """
    if (minimal := _minimal_form(rep)) is None:
        raise InconsistentRepresentation("zero rows of the reduced matrix carry nonzero offsets")
    return minimal


def _minimal_form(rep: AffineKernelRep) -> AffineKernelRep | None:
    """The kept minimal form, else None for an inconsistent ``rep``, which keeps
    nothing; computing it also writes R's reduction when R has none."""
    if rep._minimal is not None:
        return rep._minimal
    laws = [[Poly([-1, 1])] + [0] * rep.q] + [[-v, *row] for v, row in zip(rep.c, rep.R.rows)]
    (v_law, *rows), syzygies = PolyMatrix(laws).popov_reduction()
    if v_law[0].is_constant:  # [k, 0, ..., 0] with k = -lambda(1) c for some syzygy lambda
        return None
    R = PolyMatrix([row[1:] for row in rows], ncols=rep.q)
    if rep.R._reduced is None:
        # a row leads at v only when its R part is gone or of lower degree, and is then
        # reduced by sigma - 1 alone: R parts and lambda take the steps of [R | I]
        kept = tuple(_primitive(lam[1:]) for lam in syzygies)
        object.__setattr__(rep.R, "_reduced", PopovReduction(R.rows, kept))
    object.__setattr__(rep, "_minimal", AffineKernelRep(R, tuple(-row[0].coefficient(0) for row in rows)))
    return rep._minimal


def _primitive(lam: tuple[Poly, ...]) -> tuple[Poly, ...]:
    k = gcd(*(n for e in lam for n in e.numerators))
    return lam if k == 1 else tuple(Poly.from_numerators([n // k for n in e.numerators]) for e in lam)


def equivalent(rep1: AffineKernelRep, rep2: AffineKernelRep) -> bool:
    """Whether two consistent representations define the same trajectory set.

    Both are reduced to the canonical minimal (Popov) form; the canonical
    matrices are equal exactly when the offset-free row modules agree, and
    then the connecting unimodular transform is the identity, so the offsets
    must match entrywise.  Inconsistent inputs raise :class:`InconsistentRepresentation`.
    """
    if (min1 := _minimal_form(rep1)) is None or (min2 := _minimal_form(rep2)) is None:
        raise InconsistentRepresentation("equivalence is defined for consistent representations")
    return min1 == min2


def behavior_apply(rep: AffineKernelRep, window) -> np.ndarray:
    """Residuals of a data window against the representation, in floats.

    For a window w(1..L) with L >= deg R + 1, returns the (L - deg R) x g
    array with row t holding sum_k R_k w(t+k) - c.  Non-finite window entries
    and coefficients or offsets beyond the float range raise :class:`NonFiniteEntry`.
    """
    w = np.asarray(getattr(window, "data", window), dtype=float)
    if w.ndim == 1:
        w = w.reshape(-1, rep.q if rep.q and w.size % rep.q == 0 else 1)
    if w.shape[1] != rep.q:
        raise DimensionMismatch(f"window has {w.shape[1]} variables, expected {rep.q}")
    d = rep.degree
    L = w.shape[0]
    if L < d + 1:
        raise WindowTooShort(f"window {L} shorter than degree bound {d + 1}")
    if not np.all(np.isfinite(w)):
        raise NonFiniteEntry("window contains non-finite entries")
    # [R_0 ... R_d] @ (column t: w(t), ..., w(t+d) stacked) - c; each
    # coefficient is its numerator over the entry's denominator, rounded once
    blocks = np.zeros((rep.g, d + 1, rep.q))
    try:
        for i, row in enumerate(rep.R.rows):
            for j, e in enumerate(row):
                blocks[i, : len(e.numerators), j] = [n / e.denominator for n in e.numerators]
        offsets = rep.offset_floats()
    except OverflowError:
        raise NonFiniteEntry("a coefficient or offset lies beyond the float range") from None
    stacked = blocks.reshape(rep.g, (d + 1) * rep.q)
    return (stacked @ window_matrix(w, d + 1)).T - offsets


def controllable_kernel(rep: AffineKernelRep) -> bool:
    """Constant-rank test: R(lambda) keeps full rank at every complex point.

    The minimized R (r x q) does so exactly when its columns span every
    polynomial r-vector.  The weak Popov reduction of its transpose leaves r
    row-reduced rows, whose determinant's degree is the sum of their degrees,
    so that holds exactly when every such row has degree 0.
    """
    return all(d <= 0 for d in minimize(rep).R.transpose().weak_popov_degrees())


def lag_of(rep: AffineKernelRep) -> int:
    """Minimal degree over all representations of the same trajectory set.

    The Popov form of :func:`minimize` is row reduced, so its maximal row
    degree is the lag.
    """
    return max((_row_degree(row) for row in minimize(rep).R.rows), default=0)
