"""Command-line front end.

Every subcommand prints a machine-readable JSON document on stdout (floats
rendered with 12 significant digits, exact rationals as ``num/den`` strings).
Exit codes: 0 when the command succeeds and any checked condition holds,
2 when a checked condition fails, 1 on usage or data errors.

Subcommands accept only the options they read:

- ``--tol`` (a positive, finite rank or residual tolerance): pe, gape,
  rank-check, complete, ident-kernel (svd method only), invariants,
  example-sec7;
- ``--table`` (a fixed-column summary in place of JSON): pe, gape,
  rank-check, example-sec7;
- ``--out`` (a directory for file artifacts): complete, ident-kernel,
  simulate, linearize.

An option that the given data leaves unread is an error (exit 1): ``--tol``
as marked above, ``gape --n`` together with ``--d-l``, ``simulate
--horizon`` on a model with inputs, an inputs file for a model without, and
a prefix file for ``complete --tini 0``, whose prefix argument must be ``-``.
``simulate`` without its length (``--horizon`` of at least 1 on a model
without inputs, an inputs file on a model with inputs) is an argument error.
So is a malformed input file (a JSON file that is not a JSON object, or whose
fields do not parse), and so are ``--at`` and ``--x0`` values that do not
parse and a ``--mode`` other than ``analytic``, which argparse reports as
usage errors.  ``rank-check`` has no ``--n``: the width of its state file
fixes n.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import io_formats
from .affine_ss import lift, simulate
from .datadriven import (
    DEFAULT_RESIDUAL_TOL,
    DataDrivenRep,
    complete,
    invariants_from_data,
    rank_condition_affine_report,
    recover_kernel,
)
from .errors import AtisysError, _count, check_tolerance
from .excitation import gape_report, pe_order_affine_report, pe_order_linear_report
from .kernelrep import (
    AffineKernelRep,
    OffsetSequence,
    consistent_constant,
    consistent_sequence_report,
    equivalent,
    syzygy_basis,
)
from .plants import linearize
from .polymatrix import smith_form
from .scenario import EXPERIMENT_LENGTHS, WINDOW_LENGTH, run_reference_experiments
from .trajectories import Trajectory, hankel


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(value: float) -> float | str:
    if not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return float(f"{value:.12g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    return obj


def _num(value) -> str:
    if isinstance(value, float):
        formatted = _fmt(value)
        return formatted if isinstance(formatted, str) else f"{formatted:.12g}"
    return str(value)


def format_table(headers: list[str], rows: list[list]) -> str:
    cells = [[_num(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join(lines)


def _read_traj(args, attr="trajectory", all_inputs=False) -> Trajectory:
    path = getattr(args, attr)
    m = getattr(args, "m", None)
    return io_formats.read_trajectory_csv(path, m=m, all_inputs=all_inputs and m is None)


class _Output(NamedTuple):
    """A subcommand's JSON document, whether its checked condition holds, its
    ``--table`` rows (one dict per verdict) and its ``--out`` files as name -> (writer, value)."""

    doc: object
    ok: bool = True
    rows: tuple = ()
    files: dict = {}


def _print_and_write(args, out: _Output) -> int:
    """Write the files into ``--out``, then print the document, or its table
    under ``--table``: a failed write prints nothing."""
    if getattr(args, "out", None):
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, (write, value) in out.files.items():
            write(outdir / name, value)
    if getattr(args, "table", False):
        print(format_table(list(out.rows[0]), [list(row.values()) for row in out.rows]))
    else:
        print(json.dumps(_jsonable(out.doc), indent=2))
    return 0 if out.ok else 2


def _pass_fail(ok) -> str:
    return "PASS" if ok else "FAIL"


def _report_verdict(report, extra: dict, lead: dict) -> _Output:
    """One rank verdict: ``extra`` leads the JSON document, ``lead`` the table row."""
    doc = dict(
        extra,
        rank=report.rank,
        target=report.target,
        ok=bool(report.ok),
        singular_values=[_fmt(float(s)) for s in report.singular_values],
    )
    row = dict(lead, rank=report.rank, target=report.target, verdict=_pass_fail(report.ok))
    return _Output(doc, report.ok, (row,))


# -- subcommand handlers -----------------------------------------------


def _cmd_hankel(args) -> _Output:
    w = _read_traj(args)
    H = hankel(w, args.depth)
    return _Output(
        {
            "depth": H.depth,
            "block_rows": H.block_rows,
            "columns": H.columns,
            "entries": H.entries,
        }
    )


def _cmd_pe(args) -> _Output:
    u = _read_traj(args, all_inputs=True)
    report_fn = (
        pe_order_linear_report if args.model_class == "linear" else pe_order_affine_report
    )
    report = report_fn(u, args.order, args.tol)
    return _report_verdict(
        report,
        {"condition": "persistence-of-excitation", "model_class": args.model_class, "order": args.order},
        {"class": args.model_class, "order": args.order},
    )


def _cmd_gape(args) -> _Output:
    w = _read_traj(args)
    report = gape_report(w, args.order, args.n, args.tol, d_L=args.d_l)
    return _report_verdict(
        report,
        {"condition": "generalized-affine-excitation", "order": args.order, "n": args.n, "m": w.m},
        {"order": args.order, "n": args.n},
    )


def _cmd_rank_check(args) -> _Output:
    u = _read_traj(args, attr="inputs", all_inputs=True)
    x = io_formats.read_trajectory_csv(args.states)
    report = rank_condition_affine_report(x, u, args.depth, args.tol)
    return _report_verdict(
        report,
        {"condition": "data-driven-rank", "depth": args.depth, "n": x.q, "m": u.q},
        {"L": args.depth, "n": x.q},
    )


def _cmd_complete(args) -> _Output:
    data = _read_traj(args, attr="data")
    prefix = None
    if _count(args.tini, "--tini") == 0:
        if args.prefix != "-":
            raise AtisysError(f"--tini 0 reads no prefix: pass '-' in its place, not {args.prefix!r}")
    else:
        prefix = io_formats.read_trajectory_csv(args.prefix, m=data.m)
        if prefix.length != args.tini:
            raise AtisysError(
                f"--tini {args.tini} does not match prefix length {prefix.length}"
            )
    u_f = io_formats.read_trajectory_csv(args.future_inputs, all_inputs=True)
    rep = DataDrivenRep(data, args.depth)
    result = complete(rep, prefix, u_f, DEFAULT_RESIDUAL_TOL if args.tol is None else args.tol)
    return _Output(
        {
            "y_f": result.y_f.data,
            "residual": float(result.residual),
            "combination_sum": float(result.g.sum()),
        },
        files={"y_f.csv": (io_formats.write_trajectory_csv, result.y_f)},
    )


def _cmd_ident_kernel(args) -> _Output:
    data = _read_traj(args, attr="data")
    rep = DataDrivenRep(data, args.depth)
    kernel = recover_kernel(rep, tol=args.tol, n=args.n, method=args.method)
    return _Output(
        io_formats.kernel_rep_to_json(kernel),
        files={"kernel.json": (io_formats.write_kernel_json, kernel)},
    )


def _cmd_invariants(args) -> _Output:
    data = _read_traj(args, attr="data")
    inv = invariants_from_data(data, args.tmax, args.tol)
    return _Output(
        {
            "m": inv.m,
            "n": inv.n,
            "ell": inv.ell,
            "d_sequence": list(inv.d_sequence),
            "rho_sequence": list(inv.rho_sequence),
            "diagnostics": {"n_verbatim": inv.n_verbatim, "ell_verbatim": inv.ell_verbatim},
        }
    )


def _cmd_simulate(args) -> _Output:
    sys_model = io_formats.read_system_json(args.system)
    x0 = np.zeros(sys_model.n) if args.x0 is None else args.x0
    u = None if args.inputs is None else io_formats.read_trajectory_csv(args.inputs, all_inputs=True)
    result = simulate(sys_model, x0, u, horizon=args.horizon)
    doc = {
        "x": result.x.data if result.x is not None else [],
        "y": result.y.data if result.y is not None else [],
        "final_state": result.final_state,
    }
    signals = {"states.csv": result.x, "outputs.csv": result.y}
    files = {name: (io_formats.write_trajectory_csv, w) for name, w in signals.items() if w is not None}
    return _Output(doc, files=files)


def _cmd_lift(args) -> _Output:
    sys_model = io_formats.read_system_json(args.system)
    lifted = lift(sys_model)
    return _Output({"A": lifted.A, "B": lifted.B, "C": lifted.C, "D": lifted.D})


def _cmd_linearize(args) -> _Output:
    plant = io_formats.read_plant_json(args.plant)
    sys_model = linearize(plant, *args.at)
    return _Output(
        io_formats.system_to_json(sys_model),
        files={"system.json": (io_formats.write_system_json, sys_model)},
    )


def _cmd_consistency(args) -> _Output:
    R, offset = io_formats.read_kernel_json(args.kernel)
    if isinstance(offset, OffsetSequence):
        report = consistent_sequence_report(R, offset)
        doc = {
            "offset_kind": "sequence",
            "consistent": report.consistent,
            "certified": report.certified,
            "syzygy_degree": report.syzygy_degree,
            "window_length": report.window_length,
        }
        return _Output(doc, report.consistent)
    ok = consistent_constant(AffineKernelRep(R, offset))
    return _Output({"offset_kind": "constant", "consistent": bool(ok)}, ok)


def _cmd_equiv(args) -> _Output:
    R1, c1 = io_formats.read_kernel_json(args.kernel1)
    R2, c2 = io_formats.read_kernel_json(args.kernel2)
    if isinstance(c1, OffsetSequence) or isinstance(c2, OffsetSequence):
        raise AtisysError("equivalence is defined for constant-offset representations")
    verdict = equivalent(AffineKernelRep(R1, c1), AffineKernelRep(R2, c2))
    return _Output({"equivalent": bool(verdict)}, verdict)


def _cmd_syzygy(args) -> _Output:
    R = io_formats.read_poly_matrix_json(args.matrix)
    basis = syzygy_basis(R)
    return _Output(
        {
            "rank": R.shape[0] - len(basis),
            "generators": [[io_formats.poly_to_strings(p) for p in row] for row in basis],
        }
    )


def _cmd_smith(args) -> _Output:
    R = io_formats.read_poly_matrix_json(args.matrix)
    dec = smith_form(R)
    return _Output(
        {
            "rank": dec.rank,
            "invariant_factors": [io_formats.poly_to_strings(d) for d in dec.invariant_factors],
            "U": io_formats.poly_matrix_to_json(dec.U),
            "V": io_formats.poly_matrix_to_json(dec.V),
        }
    )


def _cmd_example_sec7(args) -> _Output:
    reports = run_reference_experiments(args.tol)
    doc, rows = [], []
    for (name, T), r in zip(EXPERIMENT_LENGTHS.items(), reports):
        lead = {"experiment": name, "T": T, "L": WINDOW_LENGTH, "rank": r.rank, "target": r.target}
        doc.append(dict(lead, gap_ratio=r.gap_ratio, ok=r.ok, singular_values=r.singular_values))
        rows.append(dict(lead, gap=r.gap_ratio, verdict=_pass_fail(r.ok)))
    return _Output(doc, all(r.ok for r in reports), rows)


# -- parser --------------------------------------------------------------


def _tolerance(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError:  # not a number, or out of range (InvalidArgument is a ValueError)
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}") from None


def _floats(text: str) -> list[float]:
    """Comma-separated numbers; empty items are skipped."""
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated numbers, got {text!r}") from None


def _point(text: str) -> tuple[list[float], ...]:
    groups = text.split(";")
    if len(groups) != 3:
        raise argparse.ArgumentTypeError("expects 'x1,..;u1,..;y1,..' (empty groups allowed)")
    return tuple(_floats(g) for g in groups)


def build_parser() -> _Parser:
    parser = _Parser(prog="atisys", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = {
        "--tol": dict(type=_tolerance, default=None, help="rank/residual tolerance (positive, finite)"),
        "--out": dict(default=None, help="directory for file artifacts"),
        "--table": dict(action="store_true", help="human-readable table output"),
    }

    def add(name, handler, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **common[flag])
        return p

    p = add("hankel", _cmd_hankel, "build the depth-L Hankel matrix of a trajectory")
    p.add_argument("--depth", "--L", dest="depth", type=int, required=True)
    p.add_argument("trajectory")

    p = add("pe", _cmd_pe, "persistence-of-excitation test (all columns are inputs)", "--tol", "--table")
    p.add_argument("--class", dest="model_class", choices=["linear", "affine"], required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("trajectory")

    p = add("gape", _cmd_gape, "generalized affine excitation test on io data", "--tol", "--table")
    p.add_argument("--order", "--L", dest="order", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d-l", dest="d_l", type=int, default=None,
                   help="use the general form with this restricted dimension")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("trajectory")

    p = add("rank-check", _cmd_rank_check, "data-driven rank condition from inputs and states", "--tol", "--table")
    p.add_argument("--L", dest="depth", type=int, required=True)
    p.add_argument("inputs")
    p.add_argument("states")

    p = add("complete", _cmd_complete, "continue a prefix through the data-driven representation", "--tol", "--out")
    p.add_argument("--tini", type=int, required=True)
    p.add_argument("--L", dest="depth", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("data")
    p.add_argument("prefix", help="prefix file; '-' when --tini is 0")
    p.add_argument("future_inputs")

    p = add("ident-kernel", _cmd_ident_kernel, "recover a kernel representation from data", "--tol", "--out")
    p.add_argument("--L", dest="depth", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--method", choices=["svd", "exact"], default="svd")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("data")

    p = add("invariants", _cmd_invariants, "integer invariants from a rich experiment", "--tol")
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("data")

    p = add("simulate", _cmd_simulate, "simulate a state-space model", "--out")
    p.add_argument("--system", required=True)
    p.add_argument("--x0", type=_floats, default=None, help="comma-separated initial state (default zeros)")
    p.add_argument("--horizon", type=int, default=None, help="steps when the model has no inputs")
    p.add_argument("inputs", nargs="?", default=None)

    p = add("lift", _cmd_lift, "lift an affine model to its linear form")
    p.add_argument("--system", required=True)

    p = add("linearize", _cmd_linearize, "linearize a plant around an operating point", "--out")
    p.add_argument("--plant", required=True)
    p.add_argument("--at", type=_point, required=True, help="operating point 'x1,..;u1,..;y1,..'")
    p.add_argument("--mode", choices=["analytic"], default="analytic", help="exact Jacobians, the only mode")

    p = add("consistency", _cmd_consistency, "decide consistency of a kernel representation")
    p.add_argument("kernel")

    p = add("equiv", _cmd_equiv, "decide equivalence of two kernel representations")
    p.add_argument("kernel1")
    p.add_argument("kernel2")

    p = add("syzygy", _cmd_syzygy, "generators of the left syzygy module")
    p.add_argument("matrix")

    p = add("smith", _cmd_smith, "Smith decomposition of a polynomial matrix")
    p.add_argument("matrix")

    add("example-sec7", _cmd_example_sec7, "run the bundled three-experiment reference scenario", "--tol", "--table")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _print_and_write(args, args.handler(args))
    except io_formats.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AtisysError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
