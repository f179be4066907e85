"""Data-driven trajectory representations built on a single experiment.

Under the affine excitation rank condition, the set of length-L trajectories
of an affine time-invariant model equals the affine span of the columns of a
depth-L Hankel matrix of one measured trajectory: {H g : 1^T g = 1}.  This
module checks the rank condition, solves membership and completion problems
over that affine span, recovers an explicit kernel representation from the
left null space of the data matrix, and reads the integer invariants (input
cardinality, order, lag) off the dimension profile of the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import linalg as sla

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
from .polymatrix import PolyMatrix
from .trajectories import HankelMatrix, Trajectory, hankel, numerical_rank, restrict

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


def _affine_basis(n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Particular vector and null-space basis of the constraint 1^T g = 1.

    Substituting g = g0 + N z turns the constraint into an identity, so any
    least-squares solve in z returns an exactly feasible g.
    """
    g0 = np.zeros(n_cols)
    g0[0] = 1.0
    N = sla.null_space(np.ones((1, n_cols)))
    return g0, N


class MembershipResult(NamedTuple):
    is_member: bool
    g: np.ndarray
    residual: float


def membership(rep: DataDrivenRep, window, tol: float = DEFAULT_RESIDUAL_TOL) -> MembershipResult:
    """Best affine combination of the data columns matching a window.

    Solves min ||H g - w|| subject to 1^T g = 1 by eliminating the
    constraint; the window is a member when the optimal residual is below
    ``tol * (1 + ||w||)``.
    """
    H = rep.hankel.entries
    if H.shape[1] == 0:
        raise EmptyRepresentation("the data matrix has no columns")
    w = np.asarray(getattr(window, "data", window), dtype=float).ravel()
    if w.size != H.shape[0]:
        raise DimensionMismatch(f"window has {w.size} entries, expected {H.shape[0]}")
    g0, N = _affine_basis(H.shape[1])
    if N.shape[1] == 0:
        g = g0
    else:
        z = np.linalg.lstsq(H @ N, w - H @ g0, rcond=None)[0]
        g = g0 + N @ z
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
    to be unique; non-unique output rows are detected by projecting the
    solution set's free directions onto them and raise
    :class:`AmbiguousContinuation`.
    """
    q, m, L = rep.q, rep.m, rep.depth
    p = q - m
    t_ini = 0 if w_ini is None else w_ini.length
    if w_ini is not None and w_ini.q != q:
        raise DimensionMismatch(f"prefix has {w_ini.q} variables, expected {q}")
    if u_f.q != m:
        raise DimensionMismatch(f"future inputs have {u_f.q} variables, expected {m}")
    if t_ini + u_f.length != L:
        raise DimensionMismatch(
            f"prefix ({t_ini}) plus future ({u_f.length}) must equal the depth {L}"
        )
    t_f = u_f.length

    H = rep.hankel.entries
    if H.shape[1] == 0:
        raise EmptyRepresentation("the data matrix has no columns")
    constraint_rows = list(range(q * t_ini))
    rhs_parts = [] if w_ini is None else [w_ini.data.ravel()]
    for t in range(t_ini, L):
        constraint_rows.extend(range(t * q, t * q + m))
    if t_f and m:
        rhs_parts.append(u_f.data.ravel())
    output_rows = [t * q + mi for t in range(t_ini, L) for mi in range(m, q)]

    C = H[constraint_rows]
    b = np.concatenate(rhs_parts) if rhs_parts else np.zeros(0)
    Y = H[output_rows]

    g0, N = _affine_basis(H.shape[1])
    if N.shape[1] == 0:
        g = g0
    else:
        z = np.linalg.lstsq(C @ N, b - C @ g0, rcond=None)[0]
        g = g0 + N @ z
    residual = float(np.linalg.norm(C @ g - b))
    if residual > tol * (1 + np.linalg.norm(b)):
        raise Infeasible(
            f"constraint residual {residual:.3e} exceeds the tolerance"
        )
    if N.shape[1] > 0:
        K = sla.null_space(C @ N)
        if K.shape[1] > 0:
            spread = float(np.linalg.norm(Y @ (N @ K)))
            if spread > tol * (1 + np.linalg.norm(Y)):
                raise AmbiguousContinuation(
                    f"future outputs vary by {spread:.3e} over the solution set"
                )
    y_f = (H @ g)[output_rows].reshape(t_f, p)
    return CompletionResult(Trajectory(y_f, m=0), g, residual)


def _kernel_from_rows(rows, q: int, depth: int) -> AffineKernelRep:
    """Assemble [R_0 ... R_{L-1} | -c] null rows into a kernel representation."""
    blocks = [[[Fraction(0)] * q for _ in rows] for _ in range(depth)]
    offsets = []
    for i, v in enumerate(rows):
        for k in range(depth):
            for j in range(q):
                blocks[k][i][j] = Fraction(v[k * q + j])
        offsets.append(-Fraction(v[q * depth]))
    if not rows:
        return AffineKernelRep(PolyMatrix.zeros(0, q), ())
    return AffineKernelRep(PolyMatrix.from_coefficient_blocks(blocks), tuple(offsets))


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
    equivalence procedures downstream.
    """
    H = rep.hankel.entries
    if H.shape[1] == 0:
        raise EmptyRepresentation("the data matrix has no columns")
    S = ones_augmented(H)
    qL = rep.q * rep.depth
    target = None if n is None else rep.m * rep.depth + n + 1
    if method == "svd":
        rank, svals = numerical_rank(S, tol)
        if target is not None and rank != target:
            raise ExcitationDeficient(
                f"measured rank {rank} != required {target}"
            )
        if rank - rep.m * rep.depth - 1 < 0:
            raise ExcitationDeficient(
                f"measured rank {rank} below the affine excitation floor"
            )
        U, _, _ = np.linalg.svd(S)
        basis = [U[:, k] for k in range(rank, qL + 1)]
        rows = [_normalize_largest(list(v)) for v in basis]
    elif method == "exact":
        exact_rows = exactla.left_null_space(
            [[Fraction(x) for x in row] for row in S]
        )
        rank = qL + 1 - len(exact_rows)
        if target is not None and rank != target:
            raise ExcitationDeficient(
                f"exact rank {rank} != required {target}"
            )
        if rank - rep.m * rep.depth - 1 < 0:
            raise ExcitationDeficient(
                f"exact rank {rank} below the affine excitation floor"
            )
        rows = [_normalize_largest(v) for v in exact_rows]
    else:
        raise InvalidArgument(f"method must be 'svd' or 'exact', got {method!r}")
    return _kernel_from_rows(rows, rep.q, rep.depth)


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
