"""Data-driven trajectory representations built on a single experiment.

Under the affine excitation rank condition, the set of length-L trajectories
of an affine time-invariant model equals the affine span of the columns of a
depth-L Hankel matrix of one measured trajectory: {H g : 1^T g = 1}.  This
module checks the rank condition, solves membership and completion problems
over that affine span, recovers an explicit kernel representation from the
left null space of the data matrix, and reads the integer invariants (input
cardinality, order, lag) off the dimension profile of the data.

With [1^T; H]^T = QR, only g = Q y moves [1^T; H] g: 1^T g = R_00 y_0 and
H g = R[:, 1:]^T y.  So the constraint fixes y_0, and a fit solves for the
other (at most qL) entries of y on one SVD of the matched rows, whose kept
right singular vectors also decide whether a completion is ambiguous;
membership matches every row, so its SVD is kept with the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import exactla
from .errors import (
    AmbiguousContinuation,
    DimensionMismatch,
    ExcitationDeficient,
    Infeasible,
    InvalidArgument,
    NonFiniteEntry,
    NotConverged,
    _count,
    check_tolerance,
)
from .excitation import ExcitationReport, ones_augmented, rank_verdict
from .kernelrep import AffineKernelRep
from .poly import Poly
from .polymatrix import PolyMatrix
from .trajectories import HankelMatrix, Trajectory, _augmented_r, _augmented_rank, _check_depth
from .trajectories import _factor, hankel, rank_of, window_matrix

DEFAULT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DataDrivenRep:
    """Depth-L Hankel matrix of a measured trajectory, combined affinely.

    The represented set is {H g : 1^T g = 1}; the input cardinality of the
    underlying trajectory fixes the io partition of every window.  The
    Hankel matrix and the Q and R of [1^T; H]^T are built on first use.
    """

    trajectory: Trajectory
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "depth", _check_depth(self.trajectory, self.depth))

    @cached_property
    def hankel(self) -> HankelMatrix:
        return hankel(self.trajectory, self.depth)

    @cached_property
    def _qr(self) -> tuple[np.ndarray, np.ndarray]:
        return _factor(self.trajectory, self.depth, "reduced")

    @cached_property
    def _member_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.linalg.svd(self._qr[1][1:, 1:].T, full_matrices=False)

    @property
    def q(self) -> int:
        return self.trajectory.q

    @property
    def m(self) -> int:
        return self.trajectory.m

    @property
    def p(self) -> int:
        return self.q - self.m

    @property
    def columns(self) -> int:
        return self.trajectory.length - self.depth + 1


def rank_condition_affine_report(
    x_d: Trajectory, u_d: Trajectory, depth: int, tol: float | None = None
) -> ExcitationReport:
    """Rank of [states; input windows; ones] against the target mL + n + 1."""
    if x_d.length != u_d.length:
        raise DimensionMismatch(
            f"state length {x_d.length} != input length {u_d.length}"
        )
    T = u_d.length
    Hu = hankel(u_d, depth).entries
    Hx = x_d.data[: T - depth + 1].T
    stacked = ones_augmented(np.vstack([Hx, Hu]))
    return rank_verdict(stacked, u_d.q * depth + x_d.q + 1, tol)


def rank_condition_affine(
    x_d: Trajectory, u_d: Trajectory, depth: int, tol: float | None = None
) -> bool:
    return rank_condition_affine_report(x_d, u_d, depth, tol).ok


def _affine_solve(rep: DataDrivenRep, A: np.ndarray, b: np.ndarray, svd):
    """Minimise ||A y - b|| over R_00 y_0 = 1, A rows of H Q, on the SVD A[:, 1:] = U S V^T
    cut as :func:`rank_of` cuts; return y, g = Q y, the residual and the kept rows of V^T."""
    Q, R = rep._qr
    y = np.zeros(A.shape[1])
    y[0] = 1 / R[0, 0]
    U, svals, Vt = svd
    r = rank_of(svals, (len(b) + 1, rep.columns)) if svals.size else 0  # one window: no columns
    y[1:] = Vt[:r].T @ ((U[:, :r].T @ (b - A[:, 0] * y[0])) / svals[:r])
    return y, Q @ y, float(np.linalg.norm(A @ y - b)), Vt[:r]


class MembershipResult(NamedTuple):
    is_member: bool
    g: np.ndarray
    residual: float


def membership(rep: DataDrivenRep, window, tol: float = DEFAULT_RESIDUAL_TOL) -> MembershipResult:
    """Best affine combination of the data columns matching a window.

    Solves min ||H g - w|| subject to 1^T g = 1 in the coordinates y = Q^T g;
    the window is a member when the optimal residual is below
    ``tol * (1 + ||w||)``.  ``tol`` must be positive and finite, and a
    window with a NaN or infinite entry raises :class:`NonFiniteEntry`.
    """
    check_tolerance(tol)
    w = np.asarray(getattr(window, "data", window), dtype=float).ravel()
    if w.size != rep.q * rep.depth:
        raise DimensionMismatch(f"window has {w.size} entries, expected {rep.q * rep.depth}")
    if not np.all(np.isfinite(w)):
        raise NonFiniteEntry("window contains non-finite entries")
    _, g, residual, _ = _affine_solve(rep, rep._qr[1][:, 1:].T, w, rep._member_svd)
    with np.errstate(over="ignore"):  # a bound past the float range admits any residual
        return MembershipResult(residual <= tol * (1 + np.linalg.norm(w)), g, residual)


class CompletionResult(NamedTuple):
    y_f: Trajectory
    g: np.ndarray
    residual: float


def complete(
    rep: DataDrivenRep,
    w_ini: Trajectory | None,
    u_f: Trajectory,
    tol: float = DEFAULT_RESIDUAL_TOL,
) -> CompletionResult:
    """Continue a trajectory prefix through the data-driven representation.

    Matches the full prefix samples and the future input rows of H g under
    1^T g = 1, then reads the future output rows off H g.  The prefix must
    cover at least the lag of the underlying behavior for the continuation
    to be unique: output rows that move along null [C; 1^T], C the matched
    rows of H, raise :class:`AmbiguousContinuation`.  ``tol`` must be
    positive and finite.
    """
    check_tolerance(tol)
    q, m, L = rep.q, rep.m, rep.depth
    t_ini = 0 if w_ini is None else w_ini.length
    if w_ini is not None and w_ini.q != q:
        raise DimensionMismatch(f"prefix has {w_ini.q} variables, expected {q}")
    if u_f.q != m:
        raise DimensionMismatch(f"future inputs have {u_f.q} variables, expected {m}")
    if t_ini + u_f.length != L:
        raise DimensionMismatch(
            f"prefix ({t_ini}) plus future ({u_f.length}) must equal the depth {L}"
        )

    M = rep._qr[1][:, 1:].T  # H Q, the rows of H in the coordinates y
    # rows of M by (time, variable): the prefix samples and future inputs are matched
    blocks = M.reshape(L, q, -1)
    C = np.vstack([M[: q * t_ini], blocks[t_ini:, :m].reshape(-1, M.shape[1])])
    prefix = [] if w_ini is None else [w_ini.data.ravel()]
    b = np.concatenate(prefix + [u_f.data.ravel()])
    Y = blocks[t_ini:, m:].reshape(-1, M.shape[1])

    y, g, residual, V = _affine_solve(rep, C, b, np.linalg.svd(C[:, 1:], full_matrices=False))
    with np.errstate(over="ignore"):  # bounds past the float range admit everything
        residual_bound = tol * (1 + np.linalg.norm(b))
        spread_bound = tol * (1 + np.linalg.norm(Y))
    if residual > residual_bound:
        raise Infeasible(f"constraint residual {residual:.3e} exceeds the tolerance")
    # [1^T; C] Q has first row [R_00, 0, ..., 0], so its null space is {0} x null C[:, 1:]
    if V.shape[0] < V.shape[1]:
        Y1 = Y[:, 1:]
        spread = float(np.linalg.norm(Y1 - (Y1 @ V.T) @ V))
        if spread > spread_bound:
            raise AmbiguousContinuation(
                f"future outputs vary by {spread:.3e} over the solution set"
            )
    y_f = (M @ y).reshape(L, q)[t_ini:, m:]
    return CompletionResult(Trajectory(y_f, m=0), g, residual)


def _kernel_from_rows(rows, q: int, depth: int) -> AffineKernelRep:
    """Assemble integer null rows y = [R_0 ... R_{L-1} | -c] into a kernel representation,
    each over its first largest-magnitude entry, the sign moved to the numerators."""
    R, c = [], []
    for y in rows:
        den = max(y, key=abs)
        if den < 0:
            y, den = [-v for v in y], -den
        R.append([Poly.from_numerators(y[j : q * depth : q], den) for j in range(q)])
        c.append(Fraction(-y[-1], den))
    return AffineKernelRep(PolyMatrix(R, ncols=q), tuple(c))


def _normalize_largest(v):
    idx = max(range(len(v)), key=lambda i: abs(v[i]))
    return [x / v[idx] for x in v]


def recover_kernel(
    rep: DataDrivenRep,
    tol: float | None = None,
    n: int | None = None,
    method: str = "svd",
) -> AffineKernelRep:
    """Kernel representation from the left null space of [H; 1^T].

    Each null row [r, -c_i] gives one row of the coefficient blocks
    [R_0 ... R_{L-1}] and one offset entry, so the result has
    p*L - n rows whose solution set on length-L windows is exactly the
    affine span of the data columns.  Requires the generalized affine
    excitation condition; pass the order ``n`` (nonnegative) to have it
    verified, or leave it to be inferred from the measured rank.

    ``method="svd"`` orthonormalizes the null basis in floating point;
    ``method="exact"`` computes it in rational arithmetic, which gives the
    mathematically exact kernel whenever the data values are exact (for
    example integer-valued experiments) and supports the exact lag and
    equivalence procedures downstream.  The exact route reads each float as
    the rational it encodes, so it takes no ``tol`` and refuses data with an
    entry of magnitude 2**53 or more, where floats no longer hold every
    integer and the values may already be rounded; both raise
    :class:`InvalidArgument`.
    """
    qL = rep.q * rep.depth
    target = None if n is None else rep.m * rep.depth + _count(n, "the order n") + 1
    if method == "svd":
        # [1^T; H] = R^T Q^T has R^T's left singular vectors; the ones row moves last
        U, svals, _ = np.linalg.svd(_augmented_r(rep.trajectory, rep.depth).T)
        rank, kind = rank_of(svals, (qL + 1, rep.columns), tol), "measured"
        null = np.roll(U[:, rank:], -1, axis=0).T.tolist()
        null_rows = exactla._integer_rows(map(_normalize_largest, null))
    elif method == "exact":
        if tol is not None:
            raise InvalidArgument("the exact method takes no tolerance")
        data = rep.trajectory.data  # every Hankel entry is a sample
        if np.any(np.abs(data) >= 2.0**53):
            raise InvalidArgument(
                "data entries of magnitude 2**53 or more may be rounded; "
                "the exact method cannot read them"
            )
        data = data.astype(np.int64) if np.array_equal(data, np.trunc(data)) else data
        rows = np.hstack([window_matrix(data, rep.depth).T, np.ones((rep.columns, 1), data.dtype)])
        null_rows = list(exactla._null_vectors(rows, qL + 1).values())
        rank, kind = qL + 1 - len(null_rows), "exact"
    else:
        raise InvalidArgument(f"method must be 'svd' or 'exact', got {method!r}")
    if target is not None and rank != target:
        raise ExcitationDeficient(f"{kind} rank {rank} != required {target}")
    if rank - rep.m * rep.depth - 1 < 0:
        raise ExcitationDeficient(f"{kind} rank {rank} below the affine excitation floor")
    return _kernel_from_rows(null_rows, rep.q, rep.depth)


@dataclass(frozen=True)
class IntegerInvariants:
    """Input cardinality, order and lag read off a dimension profile.

    ``d_sequence[t-1]`` is the affine dimension of the depth-t window set and
    ``rho_sequence`` its increments.  The steady-state law d_t = m t + n
    determines the adopted (n, lag); ``n_verbatim`` and ``ell_verbatim`` keep
    the alternative read-off from the increment-difference sums, which
    overshoots by the output count (and by one, respectively) on behaviors
    with nontrivial laws -- reported for diagnosis, not used.
    """

    m: int
    n: int
    ell: int
    d_sequence: tuple[int, ...]
    rho_sequence: tuple[int, ...]
    n_verbatim: int
    ell_verbatim: int

    def __post_init__(self):
        d = self.d_sequence
        if any(b < a for a, b in zip(d, d[1:])):
            raise DimensionMismatch("dimension profile must be nondecreasing")


def invariants_from_data(
    w_d: Trajectory, t_max: int, tol: float | None = None
) -> IntegerInvariants:
    """Integer invariants of the generating behavior from one rich experiment.

    The affine dimension at depth t is the rank of the ones-augmented
    depth-t Hankel matrix minus one.  Requires the data to be exciting
    enough that these dimensions match the behavior's up to ``t_max``: a
    dimension that falls with depth, where the T - t + 1 windows of depth t
    are too few, raises :class:`ExcitationDeficient`, and increments not
    stabilized by then raise :class:`NotConverged`.
    """
    t_max = _count(t_max, "t_max", 2)
    q = w_d.q
    # every depth reads the one factor at t_max
    d = [_augmented_rank(w_d, t, tol, t_max).rank - 1 for t in range(1, t_max + 1)]
    fall = next((t for t in range(2, t_max + 1) if d[t - 1] < d[t - 2]), None)
    if fall is not None:
        raise ExcitationDeficient(
            f"dimension falls from {d[fall - 2]} to {d[fall - 1]} at depth {fall}, "
            f"where {w_d.length - fall + 1} windows cannot span the window set"
        )
    rho = [d[0]] + [d[t] - d[t - 1] for t in range(1, t_max)]
    if rho[-1] != rho[-2]:
        raise NotConverged(
            f"dimension increments {rho} still changing at depth {t_max}"
        )
    m = rho[-1]
    first_settled = next(t for t in range(1, t_max + 1) if rho[t - 1] == m)
    ell = first_settled - 1
    ell_prime = max(ell, 1)
    n = d[ell_prime - 1] - m * ell_prime
    gamma = [(q if t == 1 else rho[t - 2]) - rho[t - 1] for t in range(1, t_max + 1)]
    n_verbatim = sum(t * gamma[t - 1] for t in range(1, t_max + 1))
    return IntegerInvariants(
        m=m,
        n=n,
        ell=ell,
        d_sequence=tuple(d),
        rho_sequence=tuple(rho),
        n_verbatim=n_verbatim,
        ell_verbatim=first_settled,
    )
