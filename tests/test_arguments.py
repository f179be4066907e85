"""The typed-error contract for count and tolerance arguments.

A count (depth, order, length, horizon, degree, shift, variable count) is a
Python or numpy integer, not a bool, of at least its minimum; a tolerance
(rank or residual tolerance) is a real number, not a bool, positive and
finite.  Every other value must raise an AtisysError, whichever entry point
of ``atisys.__all__`` or ``io_formats`` reader reads it.  A library fuzzer
draws an argument and a refused value; a CLI twin draws argv rows with bad
count and tolerance tokens.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atisys
from atisys import (
    AffineKernelRep,
    AffineStateSpace,
    DataDrivenRep,
    HankelMatrix,
    IntegerInvariants,
    NonlinearPlant,
    OffsetSequence,
    Poly,
    PolyMatrix,
    Trajectory,
    complete,
    consistent_sequence_report,
    controllable,
    expr_from_json,
    gape_check,
    gape_report,
    hankel,
    input_var,
    invariants_from_data,
    io_formats,
    max_pe_order,
    membership,
    min_data_length,
    numerical_rank,
    pe_order_affine,
    pe_order_affine_report,
    pe_order_linear,
    pe_order_linear_report,
    pe_profile,
    rank_condition_affine,
    rank_condition_affine_report,
    recover_kernel,
    restrict,
    sampling_gap,
    shift,
    simulate,
    state_var,
)
from atisys.cli import main
from atisys.errors import AtisysError, DimensionMismatch, InvalidArgument, ZeroMatrix
from atisys.scenario import reference_input, reference_system

SYS = reference_system()
U = reference_input("experiment-1")
SIM = simulate(SYS, np.zeros(2), U)
W = SIM.io(U)  # T = 9, q = 3, m = 1
REP = DataDrivenRep(W, 3)
FREE = AffineStateSpace([[0.5]], np.zeros((1, 0)), [[1.0]], np.zeros((1, 0)), [1.0], [0.0])
X1 = state_var(1)
PLANT_DOC = {"n": 1, "m": 1, "f": [["*", ["var", "x1"], ["var", "x1"]]], "h": [["var", "x1"]]}
MATRIX_DOC = {"rows": 1, "cols": 1, "entries": [[["1", "1"]]]}


class Count(NamedTuple):
    call: Callable  # the entry point, given the value under test
    minimum: int
    bounded: bool = False  # the data bounds it before anything is sized by it
    optional: bool = False  # None stands for a default


class Tolerance(NamedTuple):
    call: Callable
    optional: bool = True


def _read_csv_with_sidecar(tmp, value):
    path = tmp / "sidecar.csv"
    if not path.exists():
        io_formats.write_trajectory_csv(path, W)
    # numpy scalars go to the file as the JSON values they print as
    io_formats.sidecar_path(path).write_text(json.dumps({"m": value}, default=lambda v: v.item()))
    return io_formats.read_trajectory_csv(path)


def _read_csv(tmp, value):
    path = tmp / "plain.csv"
    if not path.exists():
        io_formats.write_trajectory_csv(path, W)
    return io_formats.read_trajectory_csv(path, m=value)


# every count and tolerance argument, by entry point and name
ARGUMENTS = {
    "Trajectory(m)": Count(lambda v: Trajectory(W.data, m=v), 0, bounded=True),
    "Trajectory.sample(t)": Count(lambda v: W.sample(v), 1, bounded=True),
    "HankelMatrix(depth)": Count(lambda v: HankelMatrix(np.ones((3, 4)), v, 3), 1, bounded=True),
    "HankelMatrix(block_rows)": Count(lambda v: HankelMatrix(np.ones((3, 4)), 1, v), 1, bounded=True),
    "HankelMatrix.column(j)": Count(lambda v: REP.hankel.column(v), 1, bounded=True),
    "hankel(depth)": Count(lambda v: hankel(W, v), 1, bounded=True),
    "DataDrivenRep(depth)": Count(lambda v: DataDrivenRep(W, v), 1, bounded=True),
    "restrict(t0)": Count(lambda v: restrict(W, v, 3), 1, bounded=True),
    "restrict(t1)": Count(lambda v: restrict(W, 1, v), 1, bounded=True),
    "shift(k)": Count(lambda v: shift(W, v), 0, bounded=True),
    "pe_order_linear(order)": Count(lambda v: pe_order_linear(U, v), 1, bounded=True),
    "pe_order_linear_report(order)": Count(lambda v: pe_order_linear_report(U, v), 1, bounded=True),
    "pe_order_affine(order)": Count(lambda v: pe_order_affine(U, v), 1, bounded=True),
    "pe_order_affine_report(order)": Count(lambda v: pe_order_affine_report(U, v), 1, bounded=True),
    "gape_report(order)": Count(lambda v: gape_report(W, v, 2), 1, bounded=True),
    "gape_check(order)": Count(lambda v: gape_check(W, v, 2), 1, bounded=True),
    # a huge order n or dimension d_L is a target no rank meets: a FAIL, not an error
    "gape_report(n)": Count(lambda v: gape_report(W, 2, v), 0),
    "gape_check(n)": Count(lambda v: gape_check(W, 2, v), 0),
    "gape_report(d_L)": Count(lambda v: gape_report(W, 2, d_L=v), 0, optional=True),
    "gape_check(d_L)": Count(lambda v: gape_check(W, 2, d_L=v), 0, optional=True),
    "rank_condition_affine(depth)": Count(lambda v: rank_condition_affine(SIM.x, U, v), 1, bounded=True),
    "rank_condition_affine_report(depth)": Count(
        lambda v: rank_condition_affine_report(SIM.x, U, v), 1, bounded=True
    ),
    "min_data_length(m)": Count(lambda v: min_data_length(v, 2), 1),
    "min_data_length(order)": Count(lambda v: min_data_length(1, v), 1),
    "sampling_gap(m)": Count(sampling_gap, 1),
    "recover_kernel(n)": Count(lambda v: recover_kernel(REP, n=v), 0, bounded=True, optional=True),
    "invariants_from_data(t_max)": Count(lambda v: invariants_from_data(W, v), 2, bounded=True),
    "simulate(horizon)": Count(lambda v: simulate(FREE, [0.0], horizon=v), 1),
    "Poly.from_numerators(denominator)": Count(lambda v: Poly.from_numerators([1, 2], v), 1),
    "Poly.x(degree)": Count(Poly.x, 0),
    "Poly.shift(k)": Count(lambda v: Poly([1, 2]).shift(v), 0),
    "Poly.shift(k) of zero": Count(lambda v: Poly.zero().shift(v), 0),
    # a power beyond the degree is a zero coefficient, not an error
    "Poly.coefficient(k)": Count(lambda v: Poly([1, 2]).coefficient(v), 0),
    "PolyMatrix.coefficient_block(k)": Count(lambda v: PolyMatrix([[Poly([1, 2])]]).coefficient_block(v), 0),
    "PolyMatrix(ncols)": Count(lambda v: PolyMatrix([], ncols=v), 0),
    "PolyMatrix.zeros(g)": Count(lambda v: PolyMatrix.zeros(v, 2), 0),
    "PolyMatrix.zeros(q)": Count(lambda v: PolyMatrix.zeros(2, v), 0),
    "PolyMatrix.identity(n)": Count(PolyMatrix.identity, 0),
    "OffsetSequence.constant(length)": Count(lambda v: OffsetSequence.constant([1], v), 0),
    "NonlinearPlant(n)": Count(lambda v: NonlinearPlant(f=(X1,), h=(X1,), n=v, m=0), 0, bounded=True),
    "NonlinearPlant(m)": Count(lambda v: NonlinearPlant(f=(X1,), h=(X1,), n=1, m=v), 0),
    "state_var(i)": Count(state_var, 1),
    "input_var(i)": Count(input_var, 1),
    "expr_from_json(pow exponent)": Count(lambda v: expr_from_json(["pow", ["var", "x1"], v]), 0),
    "read_trajectory_csv(m)": Count(None, 0, bounded=True, optional=True),
    "read_trajectory_csv(sidecar m)": Count(None, 0, bounded=True, optional=True),
    "poly_matrix_from_json(rows)": Count(
        lambda v: io_formats.poly_matrix_from_json(dict(MATRIX_DOC, rows=v)), 0, bounded=True
    ),
    "poly_matrix_from_json(cols)": Count(
        lambda v: io_formats.poly_matrix_from_json(dict(MATRIX_DOC, cols=v)), 0, bounded=True
    ),
    "kernel_rep_from_json(rows)": Count(
        lambda v: io_formats.kernel_rep_from_json(dict(MATRIX_DOC, rows=v, c=["0"])), 0, bounded=True
    ),
    "plant_from_json(n)": Count(lambda v: io_formats.plant_from_json(dict(PLANT_DOC, n=v)), 0, bounded=True),
    "plant_from_json(m)": Count(lambda v: io_formats.plant_from_json(dict(PLANT_DOC, m=v)), 0),
    "plant_from_json(pow exponent)": Count(
        lambda v: io_formats.plant_from_json(dict(PLANT_DOC, f=[["pow", ["var", "x1"], v]])), 0
    ),
    "numerical_rank(tol)": Tolerance(lambda v: numerical_rank(np.eye(2), v)),
    "pe_order_linear(tol)": Tolerance(lambda v: pe_order_linear(U, 2, v)),
    "pe_order_linear_report(tol)": Tolerance(lambda v: pe_order_linear_report(U, 2, v)),
    "pe_order_affine(tol)": Tolerance(lambda v: pe_order_affine(U, 2, v)),
    "pe_order_affine_report(tol)": Tolerance(lambda v: pe_order_affine_report(U, 2, v)),
    "pe_profile(tol)": Tolerance(lambda v: pe_profile(U, "affine", v)),
    "max_pe_order(tol)": Tolerance(lambda v: max_pe_order(U, "linear", v)),
    "gape_report(tol)": Tolerance(lambda v: gape_report(W, 2, 2, v)),
    "gape_check(tol)": Tolerance(lambda v: gape_check(W, 2, d_L=4, tol=v)),
    "rank_condition_affine(tol)": Tolerance(lambda v: rank_condition_affine(SIM.x, U, 2, v)),
    "rank_condition_affine_report(tol)": Tolerance(lambda v: rank_condition_affine_report(SIM.x, U, 2, v)),
    "recover_kernel(tol)": Tolerance(lambda v: recover_kernel(REP, tol=v)),
    "invariants_from_data(tol)": Tolerance(lambda v: invariants_from_data(W, 3, v)),
    "membership(tol)": Tolerance(lambda v: membership(REP, W.data[:3], v), optional=False),
    "complete(tol)": Tolerance(
        lambda v: complete(REP, restrict(W, 1, 2), Trajectory.inputs([0.5]), v), optional=False
    ),
    "controllable(tol)": Tolerance(lambda v: controllable(SYS, v)),
    "controllable(tol) without inputs": Tolerance(lambda v: controllable(FREE, v)),
}

# entry indices are Python indices, and result records hold what a procedure computed
NOT_READ = {
    "PolyMatrix.entry(i)",
    "PolyMatrix.entry(j)",
    *(f"IntegerInvariants({name})" for name in ("m", "n", "ell", "n_verbatim", "ell_verbatim")),
}
COUNT_NAMES = {"depth", "order", "n", "m", "d_L", "t_max", "horizon", "degree", "k", "length", "g", "q",
               "t", "j", "t0", "t1", "i", "ncols", "block_rows", "denominator", "ell", "n_verbatim",
               "ell_verbatim"}
TOLERANCE_NAMES = {"tol"}

REFUSED_KINDS = [2.5, np.float64(2.0), "3", True, np.bool_(True), [1], math.nan, math.inf]


def refused_values(arg) -> st.SearchStrategy:
    """Values the argument must refuse: other kinds, and numbers out of its range."""
    if isinstance(arg, Tolerance):
        fixed = ["3", True, np.bool_(True), [1], math.nan, math.inf, -math.inf, 0, 0.0, -1.0, np.float64(0)]
        out_of_range = [st.floats(max_value=0.0), st.integers(max_value=0)]
    else:
        fixed = REFUSED_KINDS + [arg.minimum - 1, np.int64(arg.minimum - 1)]
        out_of_range = [
            st.floats(),  # integer-valued ones too
            st.integers(max_value=arg.minimum - 1),
            st.integers(-(2**63), arg.minimum - 1).map(np.int64),
        ]
        if arg.bounded:
            fixed.append(10**30)
            out_of_range.append(st.integers(min_value=10**6))
    if not arg.optional:
        fixed.append(None)
    return st.one_of(st.sampled_from(fixed), st.text(max_size=3), *out_of_range)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("arguments")


@given(data=st.data())
@settings(max_examples=600, deadline=None)
def test_refused_count_or_tolerance_raises_a_typed_error(scratch, data):
    label = data.draw(st.sampled_from(sorted(ARGUMENTS)), label="argument")
    arg = ARGUMENTS[label]
    value = data.draw(refused_values(arg), label="value")
    call = {
        "read_trajectory_csv(m)": lambda v: _read_csv(scratch, v),
        "read_trajectory_csv(sidecar m)": lambda v: _read_csv_with_sidecar(scratch, v),
    }.get(label, arg.call)
    with pytest.raises(AtisysError):
        call(value)


def _public_arguments():
    """(entry point, parameter) for ``atisys.__all__``, its public methods and the io_formats readers."""
    entries = [(name, getattr(atisys, name)) for name in atisys.__all__]
    entries += [(name, getattr(io_formats, name)) for name in dir(io_formats) if name.startswith("read_")]
    for name, obj in entries:
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [
                (f"{name}.{attr}", getattr(obj, attr))
                for attr, member in vars(obj).items()
                if not attr.startswith("_")
                and (inspect.isfunction(member) or isinstance(member, classmethod))
            ]
        for qualname, fn in members:
            for param in inspect.signature(fn).parameters:
                yield f"{qualname}({param})", param


def test_every_count_and_tolerance_argument_is_fuzzed():
    fuzzed = {label.split(" ")[0] for label in ARGUMENTS} | NOT_READ
    names = COUNT_NAMES | TOLERANCE_NAMES
    assert [arg for arg, param in _public_arguments() if param in names and arg not in fuzzed] == []


def test_coefficient_powers_read_as_counts():
    p = Poly([1, 2])
    assert [p.coefficient(k) for k in (0, 1, 2, np.int64(1), 10**30)] == [1, 2, 0, 2, 0]
    assert PolyMatrix([[p, Poly.x(3)]]).coefficient_block(np.uint8(3)) == [[0, 1]]
    for k in (2.5, -1, "3", True):
        with pytest.raises(InvalidArgument):
            p.coefficient(k)


def test_numpy_integers_read_as_plain_ints():
    assert type(Trajectory(W.data, m=np.int64(1)).m) is int
    assert type(DataDrivenRep(W, np.int64(3)).depth) is int
    assert np.array_equal(hankel(W, np.int32(2)).entries, hankel(W, 2).entries)
    assert Poly([1, 2]).shift(np.uint8(2)) == Poly([0, 0, 1, 2])
    assert simulate(FREE, [0.0], horizon=np.int64(3)).y.length == 3
    assert gape_report(W, np.int64(2), np.int64(2)).rank == gape_report(W, 2, 2).rank


# -- the CLI twin ---------------------------------------------------------

BAD_TOKENS = ["2.5", "nan", "inf", "-inf", "1e30", "True", "", "abc", "0x10", "-1", "0", " 3", "1" + "0" * 30]
COUNT_TOKENS = st.one_of(
    st.sampled_from(BAD_TOKENS),
    st.integers(-3, 12).map(str),
    st.integers(-(10**31), 10**31).map(str),
    st.text(max_size=4),
)
# a valid horizon sizes the simulation, so only small ones are drawn
HORIZON_TOKENS = st.one_of(
    st.sampled_from(["2.5", "nan", "inf", "True", "", "abc", "0x10", "-1", "0", " 3"]),
    st.integers(-3, 1000).map(str),
)
# valid tolerances span the whole float range: a huge one must not overflow a bound
TOL_TOKENS = st.one_of(
    st.sampled_from(["0", "-1", "-0.0", "nan", "inf", "-inf", "1e400", "abc", "", "True", "0x1p-3", "1e308"]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
)
COUNT, HORIZON, TOL = "count", "horizon", "tol"


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    io_formats.write_trajectory_csv(root / "w.csv", W)
    io_formats.write_trajectory_csv(root / "u.csv", U)
    io_formats.write_trajectory_csv(root / "x.csv", SIM.x)
    window = restrict(W, 3, 5)
    io_formats.write_trajectory_csv(root / "prefix.csv", restrict(window, 1, 2))
    io_formats.write_trajectory_csv(root / "uf.csv", Trajectory.inputs(window.data[2:, :1]))
    io_formats.write_system_json(root / "sys.json", SYS)
    io_formats.write_system_json(root / "free.json", FREE)
    return root


# argv rows; COUNT, HORIZON and TOL mark the tokens drawn, names ending in
# .csv or .json the files written above
ROWS = [
    ["hankel", "--depth", COUNT, "w.csv"],
    ["hankel", "--L", COUNT, "u.csv"],
    ["pe", "--class", "linear", "--order", COUNT, "u.csv"],
    ["pe", "--class", "affine", "--order", COUNT, "--tol", TOL, "u.csv"],
    ["gape", "--order", COUNT, "--n", COUNT, "w.csv"],
    ["gape", "--L", COUNT, "--n", COUNT, "--tol", TOL, "w.csv"],
    ["gape", "--order", COUNT, "--d-l", COUNT, "--table", "w.csv"],
    ["rank-check", "--L", COUNT, "--tol", TOL, "u.csv", "x.csv"],
    ["complete", "--tini", COUNT, "--L", COUNT, "w.csv", "prefix.csv", "uf.csv"],
    ["complete", "--tini", COUNT, "--L", COUNT, "--tol", TOL, "w.csv", "-", "uf.csv"],
    ["ident-kernel", "--L", COUNT, "--n", COUNT, "w.csv"],
    ["ident-kernel", "--L", COUNT, "--tol", TOL, "w.csv"],
    ["ident-kernel", "--L", COUNT, "--method", "exact", "w.csv"],
    ["invariants", "--tmax", COUNT, "w.csv"],
    ["invariants", "--tmax", COUNT, "--tol", TOL, "w.csv"],
    ["simulate", "--system", "free.json", "--horizon", HORIZON],
    ["simulate", "--system", "sys.json", "--horizon", HORIZON, "u.csv"],
    ["example-sec7", "--tol", TOL],
]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_cli_count_and_tolerance_tokens_exit_cleanly(cli_files, data):
    row = data.draw(st.sampled_from(ROWS), label="row")
    strategies = {COUNT: COUNT_TOKENS, HORIZON: HORIZON_TOKENS, TOL: TOL_TOKENS}
    argv = [
        data.draw(strategies[token]) if token in strategies
        else str(cli_files / token) if token.endswith((".csv", ".json")) else token
        for token in row
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second stderr line
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# -- typed raises on shapes and structure ---------------------------------

ONE = PolyMatrix([[Poly([1])]])
TYPED_RAISES = {
    "AffineStateSpace: A not a matrix": (
        lambda: AffineStateSpace(np.zeros((1, 1, 1)), [[1.0]], [[1.0]], [[0.0]], [0.0], [0.0]),
        DimensionMismatch,
    ),
    "AffineStateSpace: C columns": (
        lambda: AffineStateSpace([[0.5]], [[1.0]], [[1.0, 2.0]], [[0.0]], [0.0], [0.0]),
        DimensionMismatch,
    ),
    "AffineStateSpace: A not square": (
        lambda: AffineStateSpace(np.zeros((1, 2)), [[1.0]], [[1.0]], [[0.0]], [0.0], [0.0]),
        DimensionMismatch,
    ),
    "AffineStateSpace: no external variable": (
        lambda: AffineStateSpace([[0.5]], np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0)), [0.0], []),
        DimensionMismatch,
    ),
    "SimulationResult.io: input length": (lambda: SIM.io(Trajectory.inputs(U.data[:3])), DimensionMismatch),
    "membership: window size": (lambda: membership(REP, np.zeros(2)), DimensionMismatch),
    "complete: prefix width": (
        lambda: complete(REP, Trajectory(np.zeros((1, 2))), Trajectory.inputs([0.5, 0.5])),
        DimensionMismatch,
    ),
    "complete: future input width": (
        lambda: complete(REP, None, Trajectory.inputs(np.zeros((3, 2)))), DimensionMismatch
    ),
    "recover_kernel: method": (lambda: recover_kernel(REP, method="qr"), InvalidArgument),
    "IntegerInvariants: falling profile": (
        lambda: IntegerInvariants(1, 0, 0, (2, 1), (2, -1), 0, 0), DimensionMismatch
    ),
    "AffineKernelRep: offset length": (lambda: AffineKernelRep(ONE, (0, 0)), DimensionMismatch),
    "OffsetSequence: ragged rows": (lambda: OffsetSequence(((1,), (1, 2))), DimensionMismatch),
    "consistent_sequence_report: offset width": (
        lambda: consistent_sequence_report(ONE, OffsetSequence(((1, 2),))), DimensionMismatch
    ),
    "Trajectory: data not a matrix": (lambda: Trajectory(np.zeros((2, 2, 2))), DimensionMismatch),
    "Trajectory: no variable": (lambda: Trajectory(np.zeros((2, 0))), DimensionMismatch),
    "Trajectory: labels": (lambda: Trajectory(W.data, m=1, labels=("u",)), DimensionMismatch),
    "HankelMatrix: entries not a matrix": (lambda: HankelMatrix(np.ones(3), 1, 1), DimensionMismatch),
    "numerical_rank: empty matrix": (lambda: numerical_rank(np.zeros((0, 2))), DimensionMismatch),
    "PolyMatrix: ragged rows": (lambda: PolyMatrix([[1], [1, 2]]), DimensionMismatch),
    "PolyMatrix.from_coefficient_blocks: no block": (lambda: PolyMatrix.from_coefficient_blocks([]), ZeroMatrix),
    "PolyMatrix: add shapes": (lambda: PolyMatrix.zeros(1, 1) + PolyMatrix.zeros(1, 2), DimensionMismatch),
    "PolyMatrix: multiply shapes": (lambda: PolyMatrix.zeros(1, 2) @ PolyMatrix.zeros(1, 2), DimensionMismatch),
    "expr_from_json: constant not a number": (lambda: expr_from_json(["const", "abc"]), InvalidArgument),
}


@pytest.mark.parametrize("label", sorted(TYPED_RAISES))
def test_shape_and_structure_errors_are_typed(label):
    call, error = TYPED_RAISES[label]
    with pytest.raises(AtisysError) as raised:
        call()
    assert type(raised.value) is error


@pytest.mark.parametrize(
    "command", ["equiv with an offset window", "linearize at two groups", "consistency of a ragged window"]
)
def test_cli_structure_errors_exit_cleanly(tmp_path, command):
    window = {"rows": 1, "cols": 1, "entries": [[["1", "1"]]], "c": [["0"], ["1"]]}
    (tmp_path / "window.json").write_text(json.dumps(window))
    (tmp_path / "ragged.json").write_text(json.dumps(dict(window, c=[["0"], ["1", "2"]])))
    (tmp_path / "plant.json").write_text(json.dumps(PLANT_DOC))
    argv = {
        "equiv with an offset window": ["equiv", str(tmp_path / "window.json"), str(tmp_path / "window.json")],
        "linearize at two groups": ["linearize", "--plant", str(tmp_path / "plant.json"), "--at", "2;0"],
        "consistency of a ragged window": ["consistency", str(tmp_path / "ragged.json")],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert err.getvalue().startswith("error:") and out.getvalue() == ""
    # a ragged window is the file's fault, reported as a file error
    assert "DimensionMismatch" not in err.getvalue()
