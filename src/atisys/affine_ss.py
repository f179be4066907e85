"""Affine state-space models: simulation, controllability, lifting.

An affine state-space model updates the state as ``x(t+1) = A x(t) + B u(t) + E``
and produces outputs ``y(t) = C x(t) + D u(t) + F``.  Dropping the offsets
gives the difference system (the linear model whose trajectories are the
differences of trajectories of the affine one).  Appending a constant state
component gives the lifted linear model, which reproduces the affine model
exactly when started from an augmented state with final coordinate 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NonFiniteEntry, _count, check_tolerance
from .trajectories import Trajectory, numerical_rank


def _as_matrix(value, rows: int | None, cols: int | None, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1 and (rows == 0 or cols == 0 or arr.size == 0):
        arr = arr.reshape(rows if rows is not None else 0, cols if cols is not None else 0)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise DimensionMismatch(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise DimensionMismatch(f"{name} must have {cols} columns, got {arr.shape[1]}")
    return arr


def _as_vector(value, size: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.size != size:
        raise DimensionMismatch(f"{name} must have {size} entries, got {arr.size}")
    return arr


@dataclass(frozen=True, eq=False)
class AffineStateSpace:
    """Matrices (A, B, C, D) plus state and output offsets (E, F)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, None, None, "A")
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        n = A.shape[0]
        # with n = 0 a bare [] for B carries no column count; D still carries m
        B = _as_matrix(self.B, n, np.shape(self.D)[1] if n == 0 and np.ndim(self.D) == 2 else None, "B")
        m = B.shape[1]
        C = _as_matrix(self.C, None, n, "C")
        p = C.shape[0]
        D = _as_matrix(self.D, p, m, "D")
        E = _as_vector(self.E, n, "E")
        F = _as_vector(self.F, p, "F")
        if m + p < 1:
            raise DimensionMismatch("the model must have at least one external variable")
        for name, arr in (("A", A), ("B", B), ("C", C), ("D", D), ("E", E), ("F", F)):
            if not np.all(np.isfinite(arr)):
                raise NonFiniteEntry(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def linear(cls, A, B, C, D) -> "AffineStateSpace":
        """Build a model with zero offsets."""
        return cls(A, B, C, D, np.zeros(len(A)), np.zeros(len(C)))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def q(self) -> int:
        return self.m + self.p


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """States and outputs over 1..T, with the final update x(T+1) kept aside.

    ``x`` is None for order-zero (static) models and ``y`` is None for models
    without outputs, since those signals have no components.
    """

    x: Trajectory | None
    y: Trajectory | None
    final_state: np.ndarray

    def io(self, u: Trajectory) -> Trajectory:
        """Stack the driving inputs with the outputs into w = (u, y)."""
        if self.y is None:
            return Trajectory.inputs(u.data)
        if u.q == 0 or u.length != self.y.length:
            raise DimensionMismatch("inputs do not match the simulated outputs")
        return Trajectory(np.hstack([u.data, self.y.data]), m=u.q)


def simulate(
    sys: AffineStateSpace,
    x0,
    u: Trajectory | None = None,
    horizon: int | None = None,
) -> SimulationResult:
    """Run the state recursion from x(1) = x0 over the input trajectory.

    For models with no inputs, pass a ``horizon`` of at least 1 instead of
    ``u``.  A missing length, a horizon that is not an integer of at least 1,
    or the argument the model does not read raises :class:`InvalidArgument`.

    The record is computed in whole-array products, not sample by sample.
    The drive v(t) = B u(t) + E and the outputs y = C x + D u + F are one
    product each over all samples.  The states are one prefix scan of the
    drive by recursive doubling through powers A^s, which stops doubling
    once s² >= T + 1 or once A^(2s) would overflow (:func:`_state_sequence`).
    They match the plain recursion to rounding, amplified only as far as
    the powers of A amplify it, and exactly on integer data within 2⁵³.
    """
    if sys.m == 0:
        if u is not None:
            raise InvalidArgument("a model without inputs takes a horizon, not u")
        T = _count(horizon, "the horizon of a model without inputs", 1)
        u_data = np.zeros((T, 0))
    else:
        if horizon is not None:
            raise InvalidArgument("a model with inputs takes its length from u, not a horizon")
        if u is None:
            raise InvalidArgument("a model with inputs needs an input trajectory u")
        if u.q != sys.m:
            raise DimensionMismatch(f"input has {u.q} components, model expects {sys.m}")
        T = u.length
        u_data = u.data
    x0 = _as_vector(x0, sys.n, "x0")
    x = _state_sequence(sys.A, x0, u_data @ sys.B.T + sys.E)
    y = x[:T] @ sys.C.T + u_data @ sys.D.T + sys.F
    x_traj = Trajectory(x[:T], m=0) if sys.n > 0 else None
    y_traj = Trajectory(y, m=0) if sys.p > 0 else None
    # a copy: a view of the last row would keep every state alive
    return SimulationResult(x_traj, y_traj, x[T].copy())


def _state_sequence(A: np.ndarray, x0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """States x(1..T+1) of x(t+1) = A x(t) + v(t), one row per time step.

    A prefix scan by recursive doubling over the rows X = (x0, v(1..T)),
    whose row t must become x(t+1) = sum_{i<=t} A^(t-i) X(i).  While row t
    holds the terms with t - i < s and P = A^s, the pass
    X[s:] += X[:-s] Pᵀ extends every row to t - i < 2s, and s doubles.
    Rows below s are then complete, so the same update finishes the record
    s rows at a time from the rows before them.

    Doubling stops once s² >= T + 1, which balances the log s full passes
    against the (T + 1)/s finishing steps, or once A^(2s) would overflow,
    so that 0 * inf never appears where the plain recursion keeps a zero.
    Memory is O(T n + n²).  Each state sums the plain recursion's terms in
    another grouping, so the two agree to rounding, amplified only by how
    far the powers of A amplify it; on integer data within 2⁵³ both are
    exact.
    """
    X = np.vstack([x0, v])
    N = len(X)
    s, P = 1, A
    while s * s < N:
        with np.errstate(over="ignore", invalid="ignore"):
            P2 = P @ P
        if not np.all(np.isfinite(P2)):
            break
        X[s:] += X[:-s] @ P.T
        s, P = 2 * s, P2
    for t in range(s, N, s):
        X[t : t + s] += X[t - s : t][: N - t] @ P.T
    return X


def controllability_matrix(sys: AffineStateSpace) -> np.ndarray:
    """Kalman matrix [B, AB, ..., A^(n-1) B]."""
    blocks = []
    block = sys.B
    for _ in range(sys.n):
        blocks.append(block)
        block = sys.A @ block
    return np.hstack(blocks) if blocks else np.zeros((0, 0))

def controllable(sys: AffineStateSpace, tol: float | None = None) -> bool:
    """Kalman rank test on (A, B); decides controllability of the behavior.

    The offsets play no role: translating a behavior never changes whether
    trajectories can be patched, so the test on the difference system settles
    the affine one.  Order-zero models are controllable by convention.  An
    explicit ``tol`` must be positive and finite, whatever the model.
    """
    if tol is not None:
        check_tolerance(tol)
    if sys.n == 0:
        return True
    if sys.m == 0:
        return False
    K = controllability_matrix(sys)
    return numerical_rank(K, tol).rank == sys.n


def difference_system(sys: AffineStateSpace) -> AffineStateSpace:
    """The linear model (A, B, C, D, 0, 0) realizing differences of trajectories."""
    return AffineStateSpace(sys.A, sys.B, sys.C, sys.D, np.zeros(sys.n), np.zeros(sys.p))


@dataclass(frozen=True, eq=False)
class LiftedStateSpace:
    """Linear model on the augmented state (x, 1) reproducing an affine one.

    The bottom state row enforces a constant internal signal: the augmented
    transition matrix has last row (0, ..., 0, 1), hence an eigenvalue at 1.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        # shapes and finiteness as for any model; then the lifted structure
        model = AffineStateSpace.linear(self.A, self.B, self.C, self.D)
        k = model.n
        if k < 1:
            raise DimensionMismatch("lifted A must be nonempty")
        bottom = np.zeros(k)
        bottom[-1] = 1.0
        if not np.array_equal(model.A[-1], bottom) or np.any(model.B[-1]):
            raise DimensionMismatch("lifted model must keep its last state constant")
        for name in "ABCD":
            object.__setattr__(self, name, getattr(model, name))

    @property
    def order(self) -> int:
        return self.A.shape[0]

    def as_state_space(self) -> AffineStateSpace:
        """View the lifted model as an offset-free state-space model."""
        return AffineStateSpace.linear(self.A, self.B, self.C, self.D)

    def initial_state(self, x0) -> np.ndarray:
        """Augment an initial state of the original model with the constant 1."""
        x0 = _as_vector(x0, self.order - 1, "x0")
        return np.concatenate([x0, [1.0]])


def lift(sys: AffineStateSpace) -> LiftedStateSpace:
    """Absorb the offsets into one extra constant state."""
    n, m, p = sys.n, sys.m, sys.p
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = sys.A
    A[:n, n] = sys.E
    A[n, n] = 1.0
    B = np.vstack([sys.B, np.zeros((1, m))])
    C = np.hstack([sys.C, sys.F.reshape(p, 1)])
    return LiftedStateSpace(A, B, C, sys.D)

