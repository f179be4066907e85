"""Reference computations that the benchmark checks atisys against.

Everything here is written independently of the package: plain numpy for
simulation and rank counts, and a small rational elimination for the exact
checks.  None of it runs inside a job's clock.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def simulate(A, B, C, D, E, F, x0, u):
    """Outputs y(1..T) of x(t+1) = A x + B u + E, y = C x + D u + F."""
    x = np.array(x0, dtype=float)
    y = np.empty((u.shape[0], C.shape[0]))
    for t in range(u.shape[0]):
        y[t] = C @ x + D @ u[t] + F
        x = A @ x + B @ u[t] + E
    return y


def simulate_int(A, B, C, D, E, F, x0, u):
    """Integer-exact simulation with Python ints (no rounding, no overflow)."""
    n = len(A)
    x = list(x0)
    out = []
    for ut in u:
        y = [
            sum(C[i][j] * x[j] for j in range(n))
            + sum(D[i][k] * ut[k] for k in range(len(ut)))
            + F[i]
            for i in range(len(C))
        ]
        out.append(list(ut) + y)
        x = [
            sum(A[i][j] * x[j] for j in range(n))
            + sum(B[i][k] * ut[k] for k in range(len(ut)))
            + E[i]
            for i in range(n)
        ]
    return out


def krylov(A, B, k):
    blocks, block = [], B
    for _ in range(k):
        blocks.append(block)
        block = A @ block
    return np.hstack(blocks)


def observability(A, C, k):
    return krylov(A.T, C.T, k).T


def observability_index(A, C):
    """Smallest k with rank [C; CA; ...; CA^(k-1)] = n: the lag of the io behavior."""
    n = A.shape[0]
    for k in range(1, n + 1):
        if np.linalg.matrix_rank(observability(A, C, k)) == n:
            return k
    raise ValueError("pair (A, C) is not observable")


def condition_ok(M, floor):
    """Full row rank with the smallest singular value above ``floor`` times the largest."""
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1] > floor * s[0]


# -- exact rational elimination ----------------------------------------


def rref(rows):
    """Reduced row echelon form of a Fraction matrix and its pivot columns."""
    M = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        inv = 1 / M[r][c]
        M[r] = [v * inv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M, pivots


def rank(rows):
    """Exact rank, taken from the Gram matrix of the shorter side.

    rank(M^T M) = rank(M) over the rationals, and the products of integer
    data stay integers, which is much cheaper than eliminating the long side.
    """
    if not rows:
        return 0
    M = rows if len(rows) <= len(rows[0]) else [list(col) for col in zip(*rows)]
    gram = [[sum(a * b for a, b in zip(r, s)) for s in M] for r in M]
    return len(rref(gram)[1])


def left_null(rows):
    """Basis of {y : y M = 0} for a Fraction matrix given by its rows."""
    nrows = len(rows)
    cols = [[rows[i][j] for i in range(nrows)] for j in range(len(rows[0]))]
    R, pivots = rref(cols)
    basis = []
    for free in (c for c in range(nrows) if c not in pivots):
        v = [Fraction(0)] * nrows
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][free]
        basis.append(v)
    return basis


def det(rows):
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    M = [[Fraction(v) for v in row] for row in rows]
    n = len(M)
    result = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            result = -result
        result *= M[c][c]
        for i in range(c + 1, n):
            if M[i][c] != 0:
                f = M[i][c] / M[c][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return result


def block_toeplitz(blocks, window):
    """Rows of the map w(1..window+d) -> (sum_k R_k w(t+k))_{t=1..window}."""
    g, q = len(blocks[0]), len(blocks[0][0])
    d = len(blocks) - 1
    M = [[Fraction(0)] * (q * (window + d)) for _ in range(g * window)]
    for t in range(window):
        for k, block in enumerate(blocks):
            for i in range(g):
                for j in range(q):
                    M[t * g + i][(t + k) * q + j] = Fraction(block[i][j])
    return M


def apply_blocks(blocks, w, c):
    """Exact residuals sum_k R_k w(t+k) - c for every t that fits."""
    d = len(blocks) - 1
    g = len(blocks[0])
    out = []
    for t in range(len(w) - d):
        row = []
        for i in range(g):
            acc = -Fraction(c[i])
            for k, block in enumerate(blocks):
                acc += sum(Fraction(a) * b for a, b in zip(block[i], w[t + k]))
            row.append(acc)
        out.append(row)
    return out


def max_syzygy_degree(blocks, n_syzygies):
    """Largest degree in a minimal basis of the left syzygies of R.

    A left null vector of the depth-N block-Toeplitz truncation is a syzygy
    of degree at most N-1, and for a minimal basis with degrees delta_i the
    null dimension is sum_i max(0, N - delta_i).  The increments therefore
    reach the number of generators exactly at N = max delta_i + 1.
    """
    if n_syzygies == 0:
        return -1
    g = len(blocks[0])
    previous = 0
    N = 1
    while True:
        if N > g * len(blocks) + 1:  # minimal degrees sum to at most g * deg R
            raise ValueError("syzygy count does not match the rank of R")
        M = block_toeplitz(blocks, N)
        null_dim = g * N - rank(M)
        if null_dim - previous == n_syzygies:
            return N - 1
        previous = null_dim
        N += 1


def bit_length(value: Fraction) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
