"""`kernels` workload: the exact path on integer io records.

Each job's system has entries in {-1, 0, 1} and spectral radius at most 1
and is driven by small integer inputs, so every sample is an exact integer.
The systems come from a fixed catalogue, so every seed runs the same mix of
exact work; the seed draws each job's record and offset windows.  For each
catalogue system, set-up builds a kernel of the same behavior from the model
alone and hides it behind a random unimodular transform.  It also builds a
syzygy of the transformed kernel, which proves the inconsistent window
inconsistent.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import oracle
from atisys import (
    DataDrivenRep,
    Poly,
    PolyMatrix,
    Trajectory,
    consistent_constant,
    consistent_sequence_report,
    controllable_kernel,
    equivalent,
    lag_of,
    minimize,
    recover_kernel,
    smith_form,
    syzygy_basis,
)
from atisys.kernelrep import AffineKernelRep, OffsetSequence

SHAPES = ((2, 1, 2), (3, 1, 2), (2, 2, 1))  # (n, m, p)
WINDOWS = (6, 10, 14)  # with 3 shapes, an odd block of 9 jobs, so its median is one job
PER_PAIR = 3  # catalogue systems per (shape, window) pair: 27 in all
CATALOGUE_SEED = 2025
T_RANGE = (40, 120)
MAX_SAMPLE = 2**40
BLOCK_SECONDS = 1.6  # job time of one block on the reference machine (2-core Xeon)
TRACE_BLOCKS = 3  # blocks in the traced run when this is the main workload


def catalogue(count=None):
    """The fixed systems, each with its transformed kernel and window witness.

    Systems are ordered so that each run of len(SHAPES) * len(WINDOWS)
    consecutive entries holds every (shape, window) pair once.
    """
    rng = np.random.default_rng(CATALOGUE_SEED)
    pairs = [(shape, W) for _ in range(PER_PAIR) for shape in SHAPES for W in WINDOWS]
    return [make_system(rng, shape, W) for shape, W in pairs[:count]]


def blocks(rng, workdir):
    """Endless blocks: every (shape, window) pair once, in a fresh order, on fresh records.

    Block b takes the pairs' systems from catalogue round b mod PER_PAIR, so
    every PER_PAIR blocks run the whole catalogue.  ``workdir`` is unused:
    the exact path reads no files.  Record lengths are log-uniform over
    T_RANGE.
    """
    systems = catalogue()
    size = len(SHAPES) * len(WINDOWS)
    lo, hi = np.log(T_RANGE[0]), np.log(T_RANGE[1])
    b = 0
    while True:
        chosen = systems[(b % PER_PAIR) * size : (b % PER_PAIR + 1) * size]
        yield [
            make_case(rng, chosen[i], int(round(np.exp(rng.uniform(lo, hi)))))
            for i in rng.permutation(size)
        ]
        b += 1


def warm_job(rng, workdir):
    """The first catalogue system on the shortest record, run once before anything is timed."""
    return make_case(rng, catalogue(1)[0], T_RANGE[0])


def _integer_system(rng, n, m, p):
    """Entries in {-1, 0, 1}, spectral radius at most 1, controllable and observable."""
    while True:
        A = rng.integers(-1, 2, size=(n, n))
        B = rng.integers(-1, 2, size=(n, m))
        C = rng.integers(-1, 2, size=(p, n))
        D = rng.integers(-1, 2, size=(p, m))
        E = rng.integers(-1, 2, size=n)
        F = rng.integers(-1, 2, size=p)
        if np.max(np.abs(np.linalg.eigvals(A))) > 1 + 1e-9:
            continue
        Af, Bf, Cf = A.astype(float), B.astype(float), C.astype(float)
        if np.linalg.matrix_rank(oracle.krylov(Af, Bf, n)) < n:
            continue
        if np.linalg.matrix_rank(oracle.observability(Af, Cf, n)) < n:
            continue
        return [M.tolist() for M in (A, B, C, D, E, F)]


def _model_kernel(sysm, depth):
    """Rows N [-T_L, I] with offset N f_L, N spanning the left null space of O_L.

    They annihilate every length-``depth`` window of the behavior and span
    all such annihilators, so they define the behavior itself.
    """
    A, B, C, D, E, F = (np.array(M, dtype=object) for M in sysm)
    n, m, p = len(A), len(B[0]), len(C)
    powers = [np.identity(n, dtype=int).astype(object)]
    for _ in range(depth):
        powers.append(powers[-1].dot(A))
    O = [list(C.dot(powers[i])[r]) for i in range(depth) for r in range(p)]
    N = oracle.left_null(O)
    g = len(N)
    # output window: y(i) = C A^i x + sum_{j<i} C A^(i-1-j) (B u(j) + E) + D u(i) + F
    blocks = [[[Fraction(0)] * (m + p) for _ in range(g)] for _ in range(depth)]
    offsets = [Fraction(0)] * g
    for i in range(depth):
        f_i = F + sum((C.dot(powers[i - 1 - j]).dot(E) for j in range(i)), np.zeros(p, dtype=int))
        for r in range(p):
            for row, nrow in enumerate(N):
                coef = nrow[i * p + r]
                if coef == 0:
                    continue
                blocks[i][row][m + r] += coef
                offsets[row] += coef * f_i[r]
                for j in range(i + 1):
                    T_ij = D if j == i else C.dot(powers[i - 1 - j]).dot(B)
                    for k in range(m):
                        blocks[j][row][k] -= coef * T_ij[r][k]
    return blocks, offsets


def _unimodular(rng, size, ops=3):
    """Random product of row swaps, unit scalings and degree-one shears, with its inverse."""
    U = [[Poly.one() if i == j else Poly.zero() for j in range(size)] for i in range(size)]
    Uinv = [row[:] for row in U]
    for _ in range(ops):
        i, j = (int(v) for v in rng.choice(size, size=2, replace=False))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            U[i], U[j] = U[j], U[i]
            for row in Uinv:
                row[i], row[j] = row[j], row[i]
        elif kind == 1:
            s = Fraction(int(rng.choice([-2, -1, 2])))
            U[i] = [e.scale(s) for e in U[i]]
            for row in Uinv:
                row[i] = row[i].scale(1 / s)
        else:
            f = Poly([int(rng.integers(-2, 3)), int(rng.choice([-1, 1]))])
            U[j] = [a + f * b for a, b in zip(U[j], U[i])]
            for row in Uinv:
                row[i] = row[i] - f * row[j]
    return U, Uinv


def _poly_rows_to_blocks(rows):
    d = max(e.degree for row in rows for e in row)
    return [[[e.coefficient(k) for e in row] for row in rows] for k in range(d + 1)]


def make_system(rng, shape, W):
    n, m, p = shape
    sysm = _integer_system(rng, n, m, p)
    depth = n + 1
    blocks, offsets = _model_kernel(sysm, depth)
    R_model = PolyMatrix.from_coefficient_blocks(blocks)
    # one redundant row (x * row 0) guarantees a syzygy for every shape
    x = Poly.x()
    rows = [list(r) for r in R_model.rows] + [[x * e for e in R_model.rows[0]]]
    c_aug = offsets + [offsets[0]]
    g = len(rows)
    U, Uinv = _unimodular(rng, g)
    R_copy = PolyMatrix(U) @ PolyMatrix(rows)
    u_at_one = [[e(Fraction(1)) for e in row] for row in U]
    c_copy = [sum(a * b for a, b in zip(row, c_aug)) for row in u_at_one]
    syzygy = PolyMatrix([[x if j == 0 else (-Poly.one() if j == g - 1 else Poly.zero()) for j in range(g)]]) @ PolyMatrix(Uinv)
    lam = _poly_rows_to_blocks(syzygy.rows)
    if not (syzygy @ R_copy).is_zero or len(lam) > W:
        raise RuntimeError("witness syzygy does not prove the perturbed window inconsistent")
    copy_blocks = _poly_rows_to_blocks(R_copy.rows)
    A, C = np.array(sysm[0], dtype=float), np.array(sysm[2], dtype=float)
    return {
        "shape": shape,
        "model": sysm,
        "ell": oracle.observability_index(A, C),
        "depth": depth,
        "copy": AffineKernelRep(R_copy, tuple(c_copy)),
        "copy_blocks": copy_blocks,
        # lam annihilates every window's block-Toeplitz matrix; a bump where it
        # is nonzero makes the window inconsistent
        "bump": next((t, i) for t in range(len(lam)) for i in range(g) if lam[t][0][i] != 0),
        "W": W,
        "delta": oracle.max_syzygy_degree(copy_blocks, g - p),
    }


def make_case(rng, system, T):
    """A fresh integer record of a catalogue system, with fresh offset windows."""
    n, m, p = system["shape"]
    depth = system["depth"]
    target = m * depth + n + 1
    while True:
        u = rng.integers(-2, 3, size=(T, m)).tolist()
        x0 = rng.integers(-1, 2, size=n).tolist()
        w = oracle.simulate_int(*system["model"], x0, u)
        if max(abs(v) for row in w for v in row) > MAX_SAMPLE:
            continue
        cols = [sum(w[j : j + depth], []) + [1] for j in range(T - depth + 1)]
        if oracle.rank(cols) == target:
            break
    copy_blocks = system["copy_blocks"]
    W, d = system["W"], len(copy_blocks) - 1
    w_free = rng.integers(-2, 3, size=(W + d, m + p)).tolist()
    consistent = oracle.apply_blocks(copy_blocks, w_free, [0] * len(copy_blocks[0]))
    inconsistent = [row[:] for row in consistent]
    t0, i0 = system["bump"]
    inconsistent[t0][i0] += 1
    return dict(
        system,
        T=T,
        w=w,
        w_traj=Trajectory(np.array(w, dtype=float), m=m),
        consistent=OffsetSequence(tuple(tuple(r) for r in consistent)),
        inconsistent=OffsetSequence(tuple(tuple(r) for r in inconsistent)),
    )


def run(job, layer):
    """One job: exact kernel recovery and every exact decision on it."""
    n = job["shape"][0]
    out = {}
    rep = layer.call("datadriven.DataDrivenRep", DataDrivenRep, job["w_traj"], job["depth"])
    kernel = layer.call("datadriven.recover_kernel_exact", recover_kernel, rep, n=n, method="exact")
    out["kernel"] = kernel
    out["consistent_constant"] = layer.call("kernelrep.consistent_constant", consistent_constant, kernel)
    out["syzygies"] = layer.call("kernelrep.syzygy_basis", syzygy_basis, kernel.R)
    dec = layer.call("polymatrix.smith_form", smith_form, kernel.R)
    out["smith"] = dec
    out["unimodular"] = layer.call("polymatrix.is_unimodular", dec.U.is_unimodular)
    out["minimal"] = layer.call("kernelrep.minimize", minimize, kernel)
    out["equivalent"] = layer.call("kernelrep.equivalent", equivalent, kernel, job["copy"])
    out["lag"] = layer.call("kernelrep.lag_of", lag_of, kernel)
    out["controllable"] = layer.call("kernelrep.controllable_kernel", controllable_kernel, kernel)
    R = job["copy"].R
    out["windows"] = [
        layer.call("kernelrep.consistent_sequence_report", consistent_sequence_report, R, job[key])
        for key in ("consistent", "inconsistent")
    ]
    return out


def _annihilates(rep, w):
    residuals = oracle.apply_blocks(rep.R.coefficient_blocks(), w, rep.c)
    return all(v == 0 for row in residuals for v in row)


def _is_unimodular(U):
    """det U(x) is the same nonzero constant at more points than its degree bound."""
    g = U.shape[0]
    values = {oracle.det(U.evaluate(Fraction(x))) for x in range(g * max(U.degree, 0) + 2)}
    return len(values) == 1 and 0 not in values


def check(job, out):
    """Failed oracle checks, by name; empty when the job is correct."""
    n, m, p = job["shape"]
    bad = []
    kernel = out["kernel"]
    if kernel.g != p * job["depth"] - n or not _annihilates(kernel, job["w"]):
        bad.append("recover_kernel_exact")
    if out["consistent_constant"] is not True:
        bad.append("consistent_constant")
    syz = out["syzygies"]
    if len(syz) != kernel.g - p or not all((PolyMatrix([lam]) @ kernel.R).is_zero for lam in syz):
        bad.append("syzygy_basis")
    dec = out["smith"]
    if (
        [f.coefficients for f in dec.invariant_factors] != [(1,)] * p
        or dec.U @ kernel.R @ dec.V != dec.diagonal()
        or not _is_unimodular(dec.U)
    ):
        bad.append("smith_form")
    if out["unimodular"] is not True:
        bad.append("is_unimodular")
    if out["minimal"].g != p or not _annihilates(out["minimal"], job["w"]):
        bad.append("minimize")
    if out["equivalent"] is not True:
        bad.append("equivalent")
    if out["lag"] != job["ell"]:
        bad.append("lag_of")
    if out["controllable"] is not True:
        bad.append("controllable_kernel")
    good, broken = out["windows"]
    if not good.consistent:
        bad.append("consistent_sequence_report.consistent_window")
    if broken.consistent:
        bad.append("consistent_sequence_report.inconsistent_window")
    for report in (good, broken):
        # a reported horizon below the minimal syzygy degree would certify wrongly
        if report.certified != (job["W"] >= report.syzygy_degree + 1) or report.syzygy_degree < job["delta"]:
            bad.append("consistent_sequence_report.certified")
    return bad


def counts(job, out):
    """Sizes of the exact work, derived from the job's inputs and outputs."""
    R = job["copy"].R
    g, q = R.shape
    W = job["W"]
    kernel, dec = out["kernel"], out["smith"]
    kernel_values = [c for row in kernel.R.rows for e in row for c in e.coefficients] + list(kernel.c)
    smith_values = [
        c
        for M in (dec.U, dec.V)
        for row in M.rows
        for e in row
        for c in e.coefficients
    ] + [c for f in dec.invariant_factors for c in f.coefficients]
    return {
        "kernelrep.consistent_sequence_report.toeplitz_cells": 2 * g * W * q * (W + R.degree),
        "kernelrep.consistent_sequence_report.degree_excess": sum(
            r.syzygy_degree - job["delta"] for r in out["windows"]
        ),
        "datadriven.recover_kernel_exact.max_coeff_bits": max(map(oracle.bit_length, kernel_values)),
        "polymatrix.smith_form.max_coeff_bits": max(map(oracle.bit_length, smith_values)),
    }
