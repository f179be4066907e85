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
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NonFiniteEntry
from .polymatrix import PolyMatrix
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
        B = _as_matrix(self.B, n, None, "B")
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

    def is_linear(self) -> bool:
        return not (np.any(self.E) or np.any(self.F))


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

    For models with no inputs, pass ``horizon`` instead of ``u``; passing
    the argument the model does not read raises :class:`InvalidArgument`.

    The record is computed in whole-array products, not sample by sample.
    The drive v(t) = B u(t) + E and the outputs y = C x + D u + F are one
    product each over all samples.  The states follow in blocks of K = 64
    samples: from the state x(t0) before a block,

        x(t0+j) = A^j x(t0) + sum_{i<j} A^(j-1-i) v(t0+i),    j = 1..K,

    that is x(t0+1..t0+K) = Φ x(t0) + Γ v(t0..t0+K-1), with Φ stacking
    A^1..A^K and Γ the lower block-Toeplitz matrix of powers of A.
    :func:`_state_sequence` says how the blocks are scheduled.
    """
    if sys.m == 0:
        if u is not None:
            raise InvalidArgument("a model without inputs takes a horizon, not u")
        if horizon is None or horizon < 1:
            raise DimensionMismatch("a positive horizon is required when m = 0")
        T = horizon
        u_data = np.zeros((T, 0))
    else:
        if horizon is not None:
            raise InvalidArgument("a model with inputs takes its length from u, not a horizon")
        if u is None:
            raise DimensionMismatch("an input trajectory is required when m > 0")
        if u.q != sys.m:
            raise DimensionMismatch(f"input has {u.q} components, model expects {sys.m}")
        T = u.length
        u_data = u.data
    x0 = _as_vector(x0, sys.n, "x0")
    x = _state_sequence(sys.A, x0, u_data @ sys.B.T + sys.E)
    y = x[:T] @ sys.C.T + u_data @ sys.D.T + sys.F
    x_traj = Trajectory(x[:T], m=0) if sys.n > 0 else None
    y_traj = Trajectory(y, m=0) if sys.p > 0 else None
    return SimulationResult(x_traj, y_traj, x[T])


_BLOCK = 64  # samples per block of the state recursion


def _state_sequence(A: np.ndarray, x0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """States x(1..T+1) of x(t+1) = A x(t) + v(t), one row per time step.

    The record is cut into blocks of K samples, the last one padded with
    zero drive, and the block recursion of :func:`simulate` runs in three
    passes:

    1. Γ v for every block at once, as a K-step recursion from a zero state;
       only its last row, the zero-state response at j = K, is kept.
    2. The block starts, one block at a time: x(t0+K) = A^K x(t0) plus that
       response.  A^K is the last block of Φ, the only one formed.
    3. The K-step recursion again for every block at once, now from the
       block starts, which fills in every state.

    That is 2K + T/K steps of array products in place of T matrix-vector
    steps, with O(T n + n²) memory and about twice the flops of the plain
    recursion.  Inside a block the arithmetic is the plain recursion's; only
    the block starts go through A^K, so the result matches the plain
    recursion to rounding, amplified only by how far A^K amplifies it.

    K is 64, cut to T on short records and to the highest finite power of
    A, so that 0 * inf never appears where the plain recursion keeps a zero.
    """
    T, n = v.shape
    K, hop = 1, A  # hop = A^K
    while K < min(_BLOCK, T):
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = A @ hop
        if not np.all(np.isfinite(nxt)):
            break
        K, hop = K + 1, nxt
    blocks = -(-T // K)
    padded = np.zeros((blocks * K, n))
    padded[:T] = v
    drive = padded.reshape(blocks, K, n).transpose(1, 0, 2).copy()  # [j, block]
    states = np.empty_like(drive)

    def fill(starts):
        previous = starts
        for j in range(K):
            states[j] = previous @ A.T + drive[j]
            previous = states[j]

    fill(np.zeros((blocks, n)))
    starts = np.empty((blocks, n))
    starts[0] = x0
    for b in range(1, blocks):
        starts[b] = hop @ starts[b - 1] + states[-1, b - 1]
    fill(starts)
    return np.vstack([x0, states.transpose(1, 0, 2).reshape(blocks * K, n)[:T]])


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
    the affine one.  Order-zero models are controllable by convention.
    """
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


def char_poly_at_one(lifted: LiftedStateSpace) -> Fraction:
    """Evaluate det(I - A) of the lifted transition matrix in exact arithmetic.

    Floats convert to rationals exactly, and the determinant is
    :meth:`PolyMatrix.determinant` of I - A as a matrix of constants.  The
    constant bottom row makes the result identically zero, certifying the
    eigenvalue at 1.
    """
    A = PolyMatrix([[Fraction(v) for v in row] for row in lifted.A.tolist()])
    return (PolyMatrix.identity(lifted.order) - A).determinant().coefficient(0)
