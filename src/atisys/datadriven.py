"""Data-driven trajectory representations built on a single experiment.

Under the affine excitation rank condition, the set of length-L trajectories
of an affine time-invariant model equals the affine span of the columns of a
depth-L Hankel matrix of one measured trajectory: {H g : 1^T g = 1}.  This
module checks the rank condition, solves membership and completion problems
over that affine span, recovers an explicit kernel representation from the
left null space of the data matrix, and reads the integer invariants (input
cardinality, order, lag) off the dimension profile of the data.

The constraint 1^T g = 1 is eliminated by the difference parametrisation
g = e_1 + D z with D = [-1^T; I]: every z is feasible and H D = H[:, 1:] - H[:, :1],
so a constrained fit is one least-squares solve, linear in the record length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import exactla
from .errors import (
    AmbiguousContinuation,
    DimensionMismatch,
    EmptyRepresentation,
    ExcitationDeficient,
    Infeasible,
    InvalidArgument,
    NotConverged,
)
from .excitation import ExcitationReport, ones_augmented, rank_verdict
from .kernelrep import AffineKernelRep
from .poly import Poly
from .polymatrix import PolyMatrix
from .trajectories import HankelMatrix, Trajectory, check_tolerance, hankel, numerical_rank
from .trajectories import rank_of, restrict

DEFAULT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DataDrivenRep:
    """Depth-L Hankel matrix of a measured trajectory, combined affinely.

    The represented set is {H g : 1^T g = 1}; the input cardinality of the
    underlying trajectory fixes the io partition of every window.
    """

    trajectory: Trajectory
    depth: int
    hankel: HankelMatrix = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "hankel", hankel(self.trajectory, self.depth))

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
        return self.hankel.columns


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
    Hx = hankel(restrict(x_d, 1, T - depth + 1), 1).entries
    stacked = ones_augmented(np.vstack([Hx, Hu]))
    return rank_verdict(stacked, u_d.q * depth + x_d.q + 1, tol)


def rank_condition_affine(
    x_d: Trajectory, u_d: Trajectory, depth: int, tol: float | None = None
) -> bool:
    return rank_condition_affine_report(x_d, u_d, depth, tol).ok


def _affine_lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimise ||A g - b|| subject to 1^T g = 1.

    With g = e_1 + D z the residual is (A[:, 1:] - A[:, :1]) z - (b - A[:, 0]),
    so z comes from one least-squares solve on the column differences.
    """
    g = np.zeros(A.shape[1])
    g[0] = 1.0
    if A.shape[1] > 1:
        z = np.linalg.lstsq(A[:, 1:] - A[:, :1], b - A[:, 0], rcond=None)[0]
        g[0] -= z.sum()
        g[1:] = z
    return g


class MembershipResult(NamedTuple):
    is_member: bool
    g: np.ndarray
    residual: float


def membership(rep: DataDrivenRep, window, tol: float = DEFAULT_RESIDUAL_TOL) -> MembershipResult:
    """Best affine combination of the data columns matching a window.

    Solves min ||H g - w|| subject to 1^T g = 1 by eliminating the
    constraint; the window is a member when the optimal residual is below
    ``tol * (1 + ||w||)``.  ``tol`` must be positive and finite.
    """
    check_tolerance(tol)
    H = rep.hankel.entries
    if H.shape[1] == 0:
        raise EmptyRepresentation("the data matrix has no columns")
    w = np.asarray(getattr(window, "data", window), dtype=float).ravel()
    if w.size != H.shape[0]:
        raise DimensionMismatch(f"window has {w.size} entries, expected {H.shape[0]}")
    g = _affine_lstsq(H, w)
    residual = float(np.linalg.norm(H @ g - w))
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

    H = rep.hankel.entries
    if H.shape[1] == 0:
        raise EmptyRepresentation("the data matrix has no columns")
    # rows of H by (time, variable): the prefix samples and future inputs are matched
    blocks = H.reshape(L, q, -1)
    C = np.vstack([H[: q * t_ini], blocks[t_ini:, :m].reshape(-1, H.shape[1])])
    prefix = [] if w_ini is None else [w_ini.data.ravel()]
    b = np.concatenate(prefix + [u_f.data.ravel()])
    Y = blocks[t_ini:, m:].reshape(-1, H.shape[1])

    g = _affine_lstsq(C, b)
    residual = float(np.linalg.norm(C @ g - b))
    if residual > tol * (1 + np.linalg.norm(b)):
        raise Infeasible(
            f"constraint residual {residual:.3e} exceeds the tolerance"
        )
    S = ones_augmented(C)
    _, svals, Vt = np.linalg.svd(S, full_matrices=False)
    V = Vt[: rank_of(svals, S.shape)]
    if V.shape[0] < S.shape[1]:
        spread = float(np.linalg.norm(Y - (Y @ V.T) @ V))
        if spread > tol * (1 + np.linalg.norm(Y)):
            raise AmbiguousContinuation(
                f"future outputs vary by {spread:.3e} over the solution set"
            )
    y_f = (H @ g).reshape(L, q)[t_ini:, m:]
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
    excitation condition; pass the order ``n`` to have it verified, or leave
    it to be inferred from the measured rank.

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
    H = rep.hankel.entries
    if H.shape[1] == 0:
        raise EmptyRepresentation("the data matrix has no columns")
    S = ones_augmented(H)
    qL = rep.q * rep.depth
    target = None if n is None else rep.m * rep.depth + n + 1
    if method == "svd":
        # complete U (null directions included) but never the T x T right factor
        U, svals, _ = np.linalg.svd(S, full_matrices=S.shape[1] < S.shape[0])
        rank, kind = rank_of(svals, S.shape, tol), "measured"
        null_rows = exactla._integer_rows(map(_normalize_largest, U[:, rank:].T.tolist()))
    elif method == "exact":
        if tol is not None:
            raise InvalidArgument("the exact method takes no tolerance")
        if np.any(np.abs(H) >= 2.0**53):
            raise InvalidArgument(
                "data entries of magnitude 2**53 or more may be rounded; "
                "the exact method cannot read them"
            )
        null_rows = list(exactla._null_vectors(S.T, qL + 1).values())
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
    enough that these dimensions match the behavior's up to ``t_max``; the
    increments must have stabilized by then or :class:`NotConverged` is
    raised.
    """
    if t_max < 2:
        raise InvalidArgument(f"t_max must be at least 2, got {t_max}")
    q = w_d.q
    d = []
    for t in range(1, t_max + 1):
        stacked = ones_augmented(hankel(w_d, t).entries)
        d.append(numerical_rank(stacked, tol).rank - 1)
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
