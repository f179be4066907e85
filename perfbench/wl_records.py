"""`records` workload: the float path on fresh noise-free records.

Each job linearizes a random polynomial plant at a non-equilibrium point,
simulates it, reads its record file back and runs the data-driven pipeline
on it.  The plants are rejection-sampled on the benchmark's own Jacobian
until the model is stable, controllable and observable with some margin,
so the true (m, n, lag) is known before atisys sees anything.
"""

from __future__ import annotations

import os

import numpy as np

import oracle
from atisys import (
    DataDrivenRep,
    Trajectory,
    behavior_apply,
    complete,
    controllable,
    gape_report,
    hankel,
    invariants_from_data,
    io_formats,
    linearize,
    max_pe_order,
    membership,
    numerical_rank,
    recover_kernel,
    simulate,
)
from atisys.plants import Const, NonlinearPlant, input_var, state_var

# A block is every (record length, shape) pair once.  Odd counts of both put
# the median job and the p90 job inside a group of like jobs rather than on
# the edge between two groups, which keeps those order statistics steady.
SHAPES = ((2, 1, 1), (3, 1, 2), (3, 2, 1))  # (n, m, p)
T_RANGE = (300, 2000)
LEVELS = 5  # log-spaced record lengths
PILOT_RANGE = (100, 150)  # pilot input length, rising with the record length
BLOCK_SECONDS = 4.5  # job time of one block on the reference machine (2-core Xeon)
TRACE_BLOCKS = 1  # blocks in the traced run when this is the main workload
COMPLETIONS = 2
MEMBERS = 2
CONDITION_FLOOR = 1e-3


def _plant(rng, n, m, p):
    """Quadratic/cubic plant, its linearization point and its exact Jacobians."""
    a = rng.normal(size=(n, n)) * 0.5 / np.sqrt(n)
    b = rng.normal(size=(n, m))
    e = rng.normal(size=n)
    c = rng.normal(size=(p, n))
    d = rng.normal(size=(p, m))
    f0 = rng.normal(size=p)
    quad = rng.normal(size=n) * 0.2
    cube = rng.normal(size=n) * 0.1
    bil = rng.normal(size=p) * 0.3
    pairs = [tuple(int(v) for v in rng.integers(0, n, size=2)) for _ in range(n)]
    cubes = [int(v) for v in rng.integers(0, n, size=n)]
    mixes = [(int(rng.integers(0, n)), int(rng.integers(0, m))) for _ in range(p)]
    xbar = rng.uniform(-1, 1, size=n)
    ubar = rng.uniform(-1, 1, size=m)
    ybar = rng.uniform(-1, 1, size=p)

    def affine(row_x, row_u, const):
        expr = Const(float(const))
        for j, v in enumerate(row_x):
            expr = expr + Const(float(v)) * state_var(j + 1)
        for k, v in enumerate(row_u):
            expr = expr + Const(float(v)) * input_var(k + 1)
        return expr

    f, h = [], []
    A, B = a.copy(), b.copy()
    C, D = c.copy(), d.copy()
    E = e + a @ xbar + b @ ubar - xbar
    F = f0 + c @ xbar + d @ ubar - ybar
    for i in range(n):
        (j, k), r = pairs[i], cubes[i]
        f.append(
            affine(a[i], b[i], e[i])
            + Const(float(quad[i])) * state_var(j + 1) * state_var(k + 1)
            + Const(float(cube[i])) * state_var(r + 1) ** 3
        )
        A[i, j] += quad[i] * xbar[k]
        A[i, k] += quad[i] * xbar[j]
        A[i, r] += 3 * cube[i] * xbar[r] ** 2
        E[i] += quad[i] * xbar[j] * xbar[k] + cube[i] * xbar[r] ** 3
    for i in range(p):
        j, k = mixes[i]
        h.append(affine(c[i], d[i], f0[i]) + Const(float(bil[i])) * state_var(j + 1) * input_var(k + 1))
        C[i, j] += bil[i] * ubar[k]
        D[i, k] += bil[i] * xbar[j]
        F[i] += bil[i] * xbar[j] * ubar[k]
    plant = NonlinearPlant(f=tuple(f), h=tuple(h), n=n, m=m)
    return plant, (xbar, ubar, ybar), (A, B, C, D, E, F)


def _stable_minimal(model):
    A, B, C = model[:3]
    n = A.shape[0]
    if np.max(np.abs(np.linalg.eigvals(A))) > 0.9:
        return False
    return oracle.condition_ok(oracle.krylov(A, B, n), CONDITION_FLOOR) and oracle.condition_ok(
        oracle.observability(A, C, n).T, CONDITION_FLOOR
    )


def record_lengths():
    lo, hi = np.log(T_RANGE[0]), np.log(T_RANGE[1])
    return [int(round(np.exp(v))) for v in np.linspace(lo, hi, LEVELS)]


def pilot_lengths():
    return [int(round(v)) for v in np.linspace(*PILOT_RANGE, LEVELS)]


def blocks(rng, workdir):
    """Endless blocks of fresh jobs: every (record length, shape) pair once, in a fresh order.

    The lengths form a log-spaced grid over T_RANGE.  The seed draws the
    plants, the operating points, the signals and the order.
    """
    pairs = [(T, pilot, shape) for T, pilot in zip(record_lengths(), pilot_lengths()) for shape in SHAPES]
    b = 0
    while True:
        block = []
        for i in rng.permutation(len(pairs)):
            T, pilot, shape = pairs[i]
            block.append(make_job(rng, T, pilot, shape, os.path.join(workdir, f"record_{b}_{i}.csv")))
        yield block
        b += 1


def warm_job(rng, workdir):
    """The shortest record, run once before anything is timed."""
    return make_job(rng, T_RANGE[0], PILOT_RANGE[0], SHAPES[0], os.path.join(workdir, "record_warm.csv"))


def make_job(rng, T, pilot_T, shape, path):
    """A fresh plant and record of length T, the queries on it and their true answers."""
    n, m, p = shape
    while True:
        plant, point, model = _plant(rng, n, m, p)
        if _stable_minimal(model):
            break
    A, B, C, D, E, F = model
    ell = oracle.observability_index(A, C)
    x0 = rng.normal(size=n)
    u = rng.normal(size=(T, m))
    y = oracle.simulate(*model, x0, u)
    w = np.hstack([u, y])
    io_formats.write_trajectory_csv(path, Trajectory(w, m=m))
    depth = n + 2
    t_ini = n

    def fresh_window():
        u_f = rng.normal(size=(depth, m))
        y_f = oracle.simulate(*model, rng.normal(size=n), u_f)
        return np.hstack([u_f, y_f])

    members = [fresh_window() for _ in range(MEMBERS)]
    outsider = fresh_window()
    outsider[-1, -1] += 0.01 * (1 + np.max(np.abs(outsider)))
    completions = []
    for _ in range(COMPLETIONS):
        win = fresh_window()
        completions.append(
            (Trajectory(win[:t_ini], m=m), Trajectory.inputs(win[t_ini:, :m]), win[t_ini:, m:])
        )
    return {
        "shape": (n, m, p),
        "ell": ell,
        "T": T,
        "depth": depth,
        "plant": plant,
        "point": point,
        "model": model,
        "x0": x0,
        "u": Trajectory.inputs(u),
        "w": w,
        "path": path,
        "pilot": Trajectory.inputs(rng.normal(size=(pilot_T, m))),
        "members": [win.ravel() for win in members],
        "outsider": outsider.ravel(),
        "completions": completions,
    }


def run(job, layer):
    """One job: the user's pipeline from plant to completion, in call order."""
    n, m, _ = job["shape"]
    depth = job["depth"]
    out = {}
    sysm = layer.call("plants.linearize", linearize, job["plant"], *job["point"])
    out["linearized"] = sysm
    out["controllable"] = layer.call("affine_ss.controllable", controllable, sysm)
    out["simulated"] = layer.call("affine_ss.simulate", simulate, sysm, job["x0"], job["u"])
    w = layer.call("io_formats.read_trajectory_csv", io_formats.read_trajectory_csv, job["path"])
    out["record"] = w
    out["pe_order"] = layer.call("excitation.max_pe_order", max_pe_order, job["pilot"], "affine")
    out["gape"] = layer.call("excitation.gape_report", gape_report, w, depth, n)
    H = layer.call("trajectories.hankel", hankel, w, depth)
    out["hankel_rank"] = layer.call("trajectories.numerical_rank", numerical_rank, H.entries).rank
    out["invariants"] = layer.call("datadriven.invariants_from_data", invariants_from_data, w, n + 2)
    rep = layer.call("datadriven.DataDrivenRep", DataDrivenRep, w, depth)
    kernel = layer.call("datadriven.recover_kernel_svd", recover_kernel, rep, n=n)
    out["kernel"] = kernel
    out["residual"] = layer.call("kernelrep.behavior_apply", behavior_apply, kernel, w.data)
    out["members"] = [layer.call("datadriven.membership", membership, rep, win) for win in job["members"]]
    out["outsider"] = layer.call("datadriven.membership", membership, rep, job["outsider"])
    out["completions"] = [
        layer.call("datadriven.complete", complete, rep, w_ini, u_f)
        for w_ini, u_f, _ in job["completions"]
    ]
    return out


RESIDUAL_TOL = 1e-8
MATCH_TOL = 1e-8


def check(job, out):
    """Failed oracle checks, by name; empty when the job is correct."""
    n, m, p = job["shape"]
    depth = job["depth"]
    bad = []
    model = job["model"]
    got = out["linearized"]
    for name, want, have in zip("ABCDEF", model, (got.A, got.B, got.C, got.D, got.E, got.F)):
        if not np.allclose(have, want, rtol=1e-12, atol=1e-12):
            bad.append(f"linearize.{name}")
    if out["controllable"] is not True:
        bad.append("controllable")
    scale = 1 + np.max(np.abs(job["w"]))
    if np.max(np.abs(out["simulated"].y.data - job["w"][:, m:])) > MATCH_TOL * scale:
        bad.append("simulate")
    rec = out["record"]
    if rec.m != m or not np.array_equal(rec.data, job["w"]):
        bad.append("read_trajectory_csv")
    if out["pe_order"] != job["pilot"].length // (m + 1):
        bad.append("max_pe_order")
    gape = out["gape"]
    if not gape.ok or gape.rank != m * depth + n + 1:
        bad.append("gape_report")
    if out["hankel_rank"] != m * depth + n + 1:
        bad.append("numerical_rank")
    inv = out["invariants"]
    if (inv.m, inv.n, inv.ell) != (m, n, job["ell"]):
        bad.append("invariants_from_data")
    if out["kernel"].g != p * depth - n:
        bad.append("recover_kernel_svd.rows")
    if np.max(np.abs(out["residual"])) > RESIDUAL_TOL * scale:
        bad.append("behavior_apply")
    if not all(r.is_member for r in out["members"]):
        bad.append("membership.true_window")
    if out["outsider"].is_member:
        bad.append("membership.perturbed_window")
    for res, (_, _, y_true) in zip(out["completions"], job["completions"]):
        if np.max(np.abs(res.y_f.data - y_true)) > MATCH_TOL * (1 + np.max(np.abs(y_true))):
            bad.append("complete")
    return bad


def counts(job, out):
    q = sum(job["shape"][1:])
    depth = job["depth"]
    return {"trajectories.hankel.bytes_computed": 8 * q * depth * (job["T"] - depth + 1)}
