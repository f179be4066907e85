"""Vector-valued time series and block-Hankel machinery.

A :class:`Trajectory` is a finite sequence of samples ``w(1), ..., w(T)`` in
R^q together with an input/output partition: the first ``m`` components of
each sample are inputs, the remaining ``p = q - m`` are outputs.  Time is
1-based everywhere in this package, so ``w.sample(1)`` is the first sample.

All objects are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.

The float rank tests and the SVD kernel share one factor per depth L:
S = [1ᵀ; H_L(w)] (ones row first), Sᵀ = QR.  The trajectory keeps R, at most
(qL+1) x (qL+1) whatever T, which carries every singular value and left
singular vector of S.  The affine solves also need Q, so each
:class:`~atisys.datadriven.DataDrivenRep` factors S once more and keeps both.
The memo is write-once (a racing thread computes the same R), so sharing a
trajectory across threads stays safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DepthExceedsLength,
    DimensionMismatch,
    EmptyTrajectory,
    NonFiniteEntry,
    OutOfRange,
    ShiftTooLarge,
    _count,
    check_tolerance,
)


def _as_time_major(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatch(f"trajectory data must be T x q, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A T x q time series with input cardinality ``m``.

    Parameters
    ----------
    data : array_like
        Samples, one row per time step (row ``t-1`` holds ``w(t)``).
        A 1-D array is treated as a scalar signal (q = 1).
    m : int
        Number of input components (``0 <= m <= q``); the remaining
        ``p = q - m`` components are outputs.
    labels : sequence of str, optional
        Variable names, one per component.
    """

    data: np.ndarray
    m: int = 0
    labels: tuple[str, ...] | None = None
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        arr = _as_time_major(self.data).copy()
        if arr.shape[0] == 0:
            raise EmptyTrajectory("trajectory must contain at least one sample")
        if arr.shape[1] == 0:
            raise DimensionMismatch("trajectory must have at least one variable")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteEntry("trajectory contains non-finite entries")
        object.__setattr__(self, "m", _count(self.m, "the input cardinality m"))
        if self.m > arr.shape[1]:
            raise DimensionMismatch(f"input cardinality m={self.m} outside [0, q={arr.shape[1]}]")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != arr.shape[1]:
                raise DimensionMismatch("labels must name every variable")
            object.__setattr__(self, "labels", labels)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def inputs(cls, data, labels=None) -> "Trajectory":
        """Build a trajectory in which every variable is an input (m = q)."""
        arr = _as_time_major(data)
        return cls(arr, m=arr.shape[1], labels=labels)

    @property
    def length(self) -> int:
        """Number of samples T."""
        return self.data.shape[0]

    @property
    def q(self) -> int:
        """Number of variables per sample."""
        return self.data.shape[1]

    @property
    def p(self) -> int:
        """Output cardinality q - m."""
        return self.q - self.m

    def sample(self, t: int) -> np.ndarray:
        """Return w(t) for 1 <= t <= T."""
        if _count(t, "time", 1) > self.length:
            raise OutOfRange(f"time {t} outside [1, {self.length}]")
        return self.data[t - 1]


@dataclass(frozen=True, eq=False)
class HankelMatrix:
    """Block-Hankel matrix of depth L built from a trajectory.

    Column j (1-based) is the stacked window ``w(j), ..., w(j+L-1)``, so the
    matrix has ``q*L`` rows and ``T-L+1`` columns and block (i, j) equals
    block (i-1, j+1) wherever both exist.
    """

    entries: np.ndarray
    depth: int
    block_rows: int = field(default=1)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float).copy()
        if arr.ndim != 2:
            raise DimensionMismatch("Hankel entries must form a matrix")
        if arr.shape[0] != _count(self.depth, "depth", 1) * _count(self.block_rows, "block_rows", 1):
            raise DimensionMismatch(
                f"{arr.shape[0]} rows inconsistent with depth {self.depth} "
                f"and block size {self.block_rows}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def columns(self) -> int:
        return self.entries.shape[1]

    def column(self, j: int) -> np.ndarray:
        """Stacked window starting at time j (1-based)."""
        if _count(j, "column", 1) > self.columns:
            raise OutOfRange(f"column {j} outside [1, {self.columns}]")
        return self.entries[:, j - 1]


def hankel(w: Trajectory, depth: int) -> HankelMatrix:
    """Build the depth-L block-Hankel matrix of a trajectory.

    Raises
    ------
    InvalidArgument
        If ``depth`` is not an integer of at least 1.
    DepthExceedsLength
        If ``depth > w.length``.
    """
    depth = _check_depth(w, depth)
    return HankelMatrix(window_matrix(w.data, depth), depth=depth, block_rows=w.q)


def _check_depth(w: Trajectory, depth: int) -> int:
    depth = _count(depth, "depth", 1)
    if depth > w.length:
        raise DepthExceedsLength(f"depth {depth} exceeds trajectory length {w.length}")
    return depth


def window_matrix(data: np.ndarray, depth: int) -> np.ndarray:
    """Stack every length-``depth`` window of a T x q array as a column.

    Row ``k*q + i`` of column ``j`` holds ``data[j + k, i]``.
    """
    windows = np.lib.stride_tricks.sliding_window_view(data, depth, axis=0)
    return windows.transpose(2, 1, 0).reshape(depth * data.shape[1], -1)


def _augmented_windows(data: np.ndarray, depth: int) -> np.ndarray:
    """[1ᵀ; H]ᵀ for the windows of ``data``: one row per window, a leading one."""
    H = window_matrix(data, depth)
    return np.vstack([np.ones(H.shape[1]), H]).T


def _factor(w: Trajectory, depth: int, mode: str):
    """``np.linalg.qr`` of [1ᵀ; H_depth(w)]ᵀ, the one O(T) factorization, at a checked depth."""
    return np.linalg.qr(_augmented_windows(w.data, depth), mode=mode)


def _augmented_r(w: Trajectory, depth: int) -> np.ndarray:
    """R of [1ᵀ; H_depth(w)]ᵀ = QR, factored on first use and kept with ``w``."""
    depth = _check_depth(w, depth)
    if depth not in w._factors:
        w._factors.setdefault(depth, _factor(w, depth, "r")).setflags(write=False)
    return w._factors[depth]


def _augmented_rank(w: Trajectory, depth: int, tol=None, factored: int | None = None):
    """:func:`numerical_rank` of [H_depth(w); 1ᵀ], from the R kept at depth ``factored``:
    [1ᵀ; H_depth]ᵀ is [1ᵀ; H_factored]ᵀ (factored >= depth) cut to its first q*depth + 1
    columns, whose R is R's leading block, over the windows after the last long one."""
    R = _augmented_r(w, depth if factored is None else factored)  # checks the depth first
    k = w.q * depth + 1
    R = R[:k, :k]
    if factored not in (None, depth):
        R = np.vstack([R, _augmented_windows(w.data[w.length - factored + 1 :], depth)])
    svals = np.linalg.svd(R, compute_uv=False)
    return RankResult(rank_of(svals, (k, w.length - depth + 1), tol), svals)


def restrict(w: Trajectory, t0: int, t1: int) -> Trajectory:
    """Samples t0..t1 inclusive, keeping q, m and labels."""
    if not _count(t0, "t0", 1) <= _count(t1, "t1", 1) <= w.length:
        raise OutOfRange(
            f"window [{t0}, {t1}] leaves the time axis [1, {w.length}]"
        )
    return Trajectory(w.data[t0 - 1 : t1], m=w.m, labels=w.labels)


def shift(w: Trajectory, k: int) -> Trajectory:
    """Apply the shift operator k times: result(t) = w(t + k), length T - k."""
    if _count(k, "shift") >= w.length:
        raise ShiftTooLarge(f"shift {k} >= length {w.length}")
    return Trajectory(w.data[k:], m=w.m, labels=w.labels)


class RankResult(NamedTuple):
    rank: int
    singular_values: np.ndarray


def default_rank_tolerance(shape: Sequence[int]) -> float:
    """max(rows, cols) * machine epsilon, relative to the top singular value."""
    return max(shape) * np.finfo(float).eps


def numerical_rank(matrix, tol: float | None = None) -> RankResult:
    """Numerical rank via SVD with a relative singular-value cutoff.

    The rank is the number of singular values exceeding ``tol * sigma_max``;
    ``tol`` defaults to ``max(rows, cols) * eps``.  The full singular-value
    list is returned for diagnostics.  An explicit ``tol`` must be positive
    and finite: NaN or infinity would cut every singular value and report
    rank 0 as if it were measured.  A wide matrix is decomposed as its
    transpose, which has the same singular values and factors faster.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise DimensionMismatch(f"expected a nonempty matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFiniteEntry("matrix contains non-finite entries")
    svals = np.linalg.svd(M.T if M.shape[0] < M.shape[1] else M, compute_uv=False)
    return RankResult(rank_of(svals, M.shape, tol), svals)


def rank_of(svals: np.ndarray, shape: Sequence[int], tol: float | None = None) -> int:
    """The cut of :func:`numerical_rank` applied to given singular values."""
    # a cut at sigma_max or above keeps nothing, and tol * sigma_max could overflow
    tol = default_rank_tolerance(shape) if tol is None else min(check_tolerance(tol), 1)
    return int(np.count_nonzero(svals > tol * svals[0])) if svals[0] > 0 else 0
