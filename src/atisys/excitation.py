"""Persistence-of-excitation tests and data-requirement accounting.

Two rank conditions on the depth-L Hankel matrix of an input sequence are
implemented: the classical one for the linear model class (full row rank,
``rank H_L(u) = m L``) and the affine one, which appends a row of ones below
the Hankel block and asks for ``m L + 1``.  The generalized affine condition
for measured io data asks for ``m L + n + 1`` and certifies the data-driven
trajectory parameterization.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, _count, check_tolerance
from .trajectories import Trajectory, _augmented_rank, hankel, numerical_rank

ModelClass = Literal["linear", "affine"]

_CLASSES = ("linear", "affine")


class ExcitationReport(NamedTuple):
    ok: bool
    rank: int
    target: int
    singular_values: np.ndarray

    @property
    def gap_ratio(self) -> float:
        """sigma_rank / sigma_(rank+1), the singular-value gap at the rank cut.

        Infinite when no singular value falls below the cut, zero at rank 0.
        """
        svals = self.singular_values
        if self.rank >= len(svals):
            return float("inf")
        return float(svals[self.rank - 1] / svals[self.rank]) if self.rank else 0.0


def rank_verdict(matrix, target: int, tol: float | None = None) -> ExcitationReport:
    """Numerical rank of ``matrix`` compared with the rank a condition requires."""
    rank, svals = numerical_rank(matrix, tol)
    return ExcitationReport(rank == target, rank, target, svals)


def _require_all_inputs(u: Trajectory):
    if u.m != u.q:
        raise DimensionMismatch(
            f"excitation tests expect an input sequence (m = q), got m={u.m}, q={u.q}"
        )


def ones_augmented(H: np.ndarray) -> np.ndarray:
    """Append the all-ones row below a data matrix."""
    return np.vstack([H, np.ones((1, H.shape[1]))])


def _check_class(model_class: ModelClass):
    if model_class not in _CLASSES:
        raise InvalidArgument(f"model class must be one of {_CLASSES}, got {model_class!r}")


def pe_order_linear_report(u: Trajectory, order: int, tol: float | None = None) -> ExcitationReport:
    _require_all_inputs(u)
    return rank_verdict(hankel(u, order).entries, u.q * order, tol)


def pe_order_linear(u: Trajectory, order: int, tol: float | None = None) -> bool:
    """True iff u is persistently exciting of the given order for class L."""
    return pe_order_linear_report(u, order, tol).ok


def pe_order_affine_report(u: Trajectory, order: int, tol: float | None = None) -> ExcitationReport:
    _require_all_inputs(u)
    return rank_verdict(ones_augmented(hankel(u, order).entries), u.q * order + 1, tol)


def pe_order_affine(u: Trajectory, order: int, tol: float | None = None) -> bool:
    """True iff u is persistently exciting of the given order for class A."""
    return pe_order_affine_report(u, order, tol).ok


def _pe_test(model_class: ModelClass):
    _check_class(model_class)
    return pe_order_linear if model_class == "linear" else pe_order_affine


def pe_profile(u: Trajectory, model_class: ModelClass, tol: float | None = None) -> list[bool]:
    """Pass/fail of the excitation test for every order L = 1..T.

    In exact arithmetic the condition is monotone in L.  Dropping the last
    block row of [H_L(u); 1ᵀ] leaves [H_(L-1)(u); 1ᵀ] without its last
    column.  So if the former has full row rank, so does the latter, and
    with the column put back, order L-1 passes too; the same holds without
    the ones row.  This scan does not rely on that and tests every order:
    it is the reference that :func:`max_pe_order` is checked against, and a
    numerical rank verdict that breaks monotonicity near the tolerance
    surfaces here.
    """
    test = _pe_test(model_class)
    return [test(u, L, tol) for L in range(1, u.length + 1)]


def max_pe_order(u: Trajectory, model_class: ModelClass, tol: float | None = None) -> int:
    """Largest order L such that all orders up to L pass; 0 if the first fails.

    No order above the column cap can pass: the matrix has T - L + 1 columns
    for qL rows (linear) or qL + 1 rows (affine), so L is at most
    floor((T+1)/(q+1)) or floor(T/(q+1)).  The condition is monotone in L
    (full row rank at order L implies it at L-1, see :func:`pe_profile`),
    so the cap is tested first, which settles a generic input in one rank
    test, and otherwise the largest passing order is bisected below it: at
    most ceil(log2 cap) + 1 rank tests in all.
    """
    test = _pe_test(model_class)
    _require_all_inputs(u)
    if tol is not None:
        check_tolerance(tol)
    # the largest L with min_data_length(q, L, model_class) <= T
    cap = (u.length + (model_class == "linear")) // (u.q + 1)
    if cap == 0 or test(u, cap, tol):
        return cap
    passing, failing = 0, cap
    while failing - passing > 1:
        mid = (passing + failing) // 2
        if test(u, mid, tol):
            passing = mid
        else:
            failing = mid
    return passing


def gape_report(
    w: Trajectory,
    order: int,
    n: int | None = None,
    tol: float | None = None,
    *,
    d_L: int | None = None,
) -> ExcitationReport:
    """Generalized affine persistency of excitation on measured io data.

    The target rank is ``m*order + n + 1`` (valid whenever the depth is at
    least the behavior's lag).  Passing ``d_L`` instead of ``n`` switches to
    the general form ``d_L + 1``, where ``d_L`` is the affine dimension of
    the restricted behavior at depth L; passing both, or an ``n`` or ``d_L``
    that is not a nonnegative integer, raises :class:`InvalidArgument`, as
    does an order that is not a positive integer.
    """
    if n is not None and d_L is not None:
        raise InvalidArgument("pass the order n or the dimension d_L, not both")
    rank, svals = _augmented_rank(w, order, tol)  # reads the order before the target does
    if d_L is None:
        target = w.m * order + _count(n, "the order n (unless d_L is given)") + 1
    else:
        target = _count(d_L, "the dimension d_L") + 1
    return ExcitationReport(rank == target, rank, target, svals)


def gape_check(
    w: Trajectory,
    order: int,
    n: int | None = None,
    tol: float | None = None,
    *,
    d_L: int | None = None,
) -> bool:
    return gape_report(w, order, n, tol, d_L=d_L).ok


def min_data_length(m: int, order: int, model_class: ModelClass = "linear") -> int:
    """Minimal sequence length T_L for excitation of order L.

    The rank test can pass only when its matrix has at least as many columns
    (T - L + 1) as rows: m L for the linear class, so T_L = (m+1)L - 1, and
    m L + 1 for the affine class, so T_L = (m+1)L.  A generic input passes
    at exactly that length.  The saving of the affine route comes from the
    lower order it needs (see :func:`sampling_gap`).
    """
    _check_class(model_class)
    m, order = _count(m, "m", 1), _count(order, "order", 1)
    rows = m * order + (model_class == "affine")
    return rows + order - 1


def sampling_gap(m: int) -> int:
    """Sample-count reduction T_{n+L+1}(linear) - T_{n+L}(affine) = m."""
    return _count(m, "m", 1)
