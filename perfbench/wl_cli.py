"""`cli` workload: one `python -m atisys.cli` process per job.

A cycle runs a fixed mix of subcommands on small fixture files written at
set-up.  Each invocation's stdout is validated against the published schema,
its exit code against the one the subcommand should give, and its key
numbers against the truth and against in-process results computed at
set-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import oracle
import wl_kernels
import wl_records
from atisys import (
    AffineStateSpace,
    DataDrivenRep,
    complete,
    consistent_sequence_report,
    io_formats,
    recover_kernel,
    smith_form,
)
from atisys.scenario import run_reference_experiments

SUBCOMMANDS = (
    "example-sec7",
    "ident-kernel",
    "invariants",
    "complete",
    "consistency",
    "equiv",
    "smith",
    "simulate",
    "linearize",
)
RECORD_T = 80
MATCH_TOL = 1e-9
BLOCK_SECONDS = 5.6  # job time of one cycle on the reference machine (2-core Xeon)
TRACE_BLOCKS = 2  # blocks in the traced run when this is the main workload


def _close(a, b, tol=MATCH_TOL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * (1 + np.abs(b))))


def _kernel_doc_matches(doc, rep):
    return doc["entries"] == io_formats.kernel_rep_to_json(rep)["entries"] and doc["c"] == [
        str(v) for v in rep.c
    ]


def blocks(rng, workdir):
    """The same cycle of invocations, forever: the mix is fixed, the fixtures come from the seed."""
    cycle = make_cycle(rng, workdir)
    while True:
        yield cycle


def make_cycle(rng, workdir):
    """The fixed mix of invocations, each with the checks its output must pass."""

    def path(name):
        return os.path.join(workdir, name)

    # a small float record from a linearized plant, with its truth
    job = wl_records.make_job(rng, RECORD_T, RECORD_T, wl_records.SHAPES[1], path("record.csv"))
    n, m, p = job["shape"]
    depth = job["depth"]
    plant_doc = {
        "n": n,
        "m": m,
        "f": [e.to_json() for e in job["plant"].f],
        "h": [e.to_json() for e in job["plant"].h],
    }
    with open(path("plant.json"), "w") as fh:
        json.dump(plant_doc, fh)
    at = ";".join(",".join(repr(float(v)) for v in part) for part in job["point"])
    model = AffineStateSpace(*job["model"])
    io_formats.write_system_json(path("system.json"), model)
    io_formats.write_trajectory_csv(path("inputs.csv"), job["u"])
    w_ini, u_f, y_true = job["completions"][0]
    io_formats.write_trajectory_csv(path("prefix.csv"), w_ini)
    io_formats.write_trajectory_csv(path("future.csv"), u_f)
    data = io_formats.read_trajectory_csv(path("record.csv"))
    rep = DataDrivenRep(data, depth)
    svd_kernel = recover_kernel(rep, n=n)
    completion = complete(rep, w_ini, u_f)

    # a small integer record and kernels of its behavior
    case = wl_kernels.make_case(rng, wl_kernels.catalogue(1)[0], 60)
    ni, _, pi = case["shape"]
    io_formats.write_trajectory_csv(path("integer.csv"), case["w_traj"])
    exact_kernel = recover_kernel(
        DataDrivenRep(case["w_traj"], case["depth"]), n=ni, method="exact"
    )
    io_formats.write_kernel_json(path("kernel_a.json"), exact_kernel)
    io_formats.write_kernel_json(path("kernel_b.json"), case["copy"])
    R = case["copy"].R
    with open(path("matrix.json"), "w") as fh:
        json.dump(io_formats.poly_matrix_to_json(R), fh)
    windows = {}
    for key in ("consistent", "inconsistent"):
        doc = io_formats.poly_matrix_to_json(R)
        doc["c"] = [[str(v) for v in row] for row in case[key].values]
        with open(path(f"window_{key}.json"), "w") as fh:
            json.dump(doc, fh)
        windows[key] = consistent_sequence_report(R, case[key])
    smith = smith_form(R)
    reference = run_reference_experiments()

    def check_sec7(doc):
        return [r["rank"] for r in doc] == [r.rank for r in reference] == [5, 5, 5] and all(
            r["ok"] for r in doc
        )

    def check_svd(doc):
        return doc["rows"] == p * depth - n and _kernel_doc_matches(doc, svd_kernel)

    def check_exact(doc):
        R_doc, c_doc = io_formats.kernel_rep_from_json(doc)
        residuals = oracle.apply_blocks(R_doc.coefficient_blocks(), case["w"], c_doc)
        return (
            doc["rows"] == pi * case["depth"] - ni
            and all(v == 0 for row in residuals for v in row)
            and _kernel_doc_matches(doc, exact_kernel)
        )

    def check_invariants(doc):
        return (doc["m"], doc["n"], doc["ell"]) == (m, n, job["ell"])

    def check_complete(doc):
        return _close(doc["y_f"], y_true, 1e-8) and _close(doc["y_f"], completion.y_f.data)

    def check_window(key):
        want = windows[key]

        def check(doc):
            return (
                doc["consistent"] is (key == "consistent")
                and doc["consistent"] == want.consistent
                and doc["certified"] == want.certified
                and doc["syzygy_degree"] == want.syzygy_degree
            )

        return check

    def check_equiv(doc):
        return doc["equivalent"] is True

    def check_smith(doc):
        factors = [[str(c) for c in f.coefficients] for f in smith.invariant_factors]
        return doc["rank"] == pi and doc["invariant_factors"] == factors == [["1"]] * pi

    def check_simulate(doc):
        return _close(doc["y"], job["w"][:, m:])

    def check_linearize(doc):
        return all(_close(doc[k], v) for k, v in zip("ABCDEF", job["model"]))

    # values that may start with "-" go in the --option=value form
    x0 = "--x0=" + ",".join(repr(float(v)) for v in job["x0"])
    at = f"--at={at}"
    validator = Validator()
    mix = [
        ("example-sec7", ["example-sec7"], 0, check_sec7),
        ("ident-kernel", ["ident-kernel", "--L", str(depth), "--n", str(n), path("record.csv")], 0, check_svd),
        (
            "ident-kernel",
            ["ident-kernel", "--method", "exact", "--L", str(case["depth"]), "--n", str(ni), path("integer.csv")],
            0,
            check_exact,
        ),
        ("invariants", ["invariants", "--tmax", str(n + 2), path("record.csv")], 0, check_invariants),
        (
            "complete",
            ["complete", "--tini", str(w_ini.length), "--L", str(depth), path("record.csv"), path("prefix.csv"), path("future.csv")],
            0,
            check_complete,
        ),
        ("consistency", ["consistency", path("window_consistent.json")], 0, check_window("consistent")),
        ("consistency", ["consistency", path("window_inconsistent.json")], 2, check_window("inconsistent")),
        ("equiv", ["equiv", path("kernel_a.json"), path("kernel_b.json")], 0, check_equiv),
        ("smith", ["smith", path("matrix.json")], 0, check_smith),
        ("simulate", ["simulate", "--system", path("system.json"), x0, path("inputs.csv")], 0, check_simulate),
        ("linearize", ["linearize", "--plant", path("plant.json"), at, "--mode", "analytic"], 0, check_linearize),
    ]
    return [
        {"name": name, "argv": argv, "exit": code, "check": check_doc, "validator": validator}
        for name, argv, code, check_doc in mix
    ]


def run(job, layer):
    return layer.call(f"cli.{job['name']}", invoke, job["argv"])


def invoke(argv):
    """Run one CLI process to completion; returns (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "atisys.cli", *argv], capture_output=True, text=True, check=False
    )
    return proc.returncode, proc.stdout


def import_seconds():
    """Wall time of a bare interpreter that only imports atisys.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import atisys.cli"], check=True)
    return time.perf_counter() - start


class Validator:
    """Schema validation of each subcommand's stdout with the installed jsonschema."""

    def __init__(self):
        import jsonschema
        from atisys.schemas import cli_output_schema

        self._validators = {}
        for name in SUBCOMMANDS:
            schema = cli_output_schema(name)
            self._validators[name] = jsonschema.Draft202012Validator(schema)

    def errors(self, name, doc):
        return [e.message for e in self._validators[name].iter_errors(doc)]


def check(job, result):
    """Failed checks, by name, for one finished invocation."""
    name = job["name"]
    code, stdout = result
    bad = []
    if code != job["exit"]:
        return [f"{name}.exit_code"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [f"{name}.json"]
    if job["validator"].errors(name, doc):
        bad.append(f"{name}.schema")
    try:
        ok = job["check"](doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        ok = False
    if not ok:
        bad.append(f"{name}.values")
    return bad

