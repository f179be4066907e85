import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import atisys
from atisys import AffineStateSpace, Poly, PolyMatrix, Trajectory, io_formats
from atisys.cli import main
from atisys.kernelrep import AffineKernelRep, OffsetSequence
from atisys.scenario import reference_system

X = Poly.x()

# files that are not a JSON object, and the commands that read a JSON file
NOT_A_JSON_OBJECT = ["text.json", "list.json", "bytes.json"]
READS_JSON = [
    ["smith"],
    ["syzygy"],
    ["consistency"],
    ["equiv", "k.json"],
    ["simulate", "--system"],
    ["lift", "--system"],
    ["linearize", "--at", "2;0;2", "--plant"],
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_inputs(path, values):
    io_formats.write_trajectory_csv(path, Trajectory.inputs(values))


class TestTrajectoryCsv:
    def test_round_trip_with_sidecar(self, workdir):
        w = Trajectory(np.random.default_rng(0).normal(size=(5, 3)), m=2, labels=("a", "b", "c"))
        io_formats.write_trajectory_csv("w.csv", w)
        back = io_formats.read_trajectory_csv("w.csv")
        assert back.m == 2 and back.labels == ("a", "b", "c")
        assert np.array_equal(back.data, w.data)

    def test_explicit_m_wins_over_sidecar(self, workdir):
        w = Trajectory(np.zeros((3, 2)), m=2)
        io_formats.write_trajectory_csv("w.csv", w)
        assert io_formats.read_trajectory_csv("w.csv", m=1).m == 1

    def test_times_must_run_from_one(self, workdir):
        (workdir / "bad.csv").write_text("t,w1\n2,1.0\n3,2.0\n")
        with pytest.raises(io_formats.FormatError):
            io_formats.read_trajectory_csv("bad.csv")

    def test_header_checked(self, workdir):
        (workdir / "bad.csv").write_text("time,w1\n1,1.0\n")
        with pytest.raises(io_formats.FormatError):
            io_formats.read_trajectory_csv("bad.csv")

    @pytest.mark.parametrize(
        "body",
        [
            "1,1.0\n2,2.0\n3,3.0,4.0\n",  # too many fields
            "1,1.0\n2,2.0\n3\n",  # too few fields
            "1,1.0\n2,2.0\n3,abc\n",  # non-numeric cell
            "1,1.0\n2,2.0\n3,\n",  # empty cell
            "1,1.0\n2,2.0\n3,#\n",  # '#' is a value, not a comment
        ],
    )
    def test_bad_row_named_one_based(self, workdir, body):
        (workdir / "bad.csv").write_text("t,w1\n" + body)
        with pytest.raises(io_formats.FormatError, match=r"\brow 3\b"):
            io_formats.read_trajectory_csv("bad.csv")

    def test_bad_first_row_field_count(self, workdir):
        (workdir / "bad.csv").write_text("t,w1\n1,1.0,2.0\n2,2.0,3.0\n")
        with pytest.raises(io_formats.FormatError, match=r"\brow 1\b"):
            io_formats.read_trajectory_csv("bad.csv")

    def test_hash_line_is_not_a_comment(self, workdir):
        (workdir / "bad.csv").write_text("t,w1\n1,1.0\n# note\n")
        with pytest.raises(io_formats.FormatError):
            io_formats.read_trajectory_csv("bad.csv")

    def test_time_gap_named_one_based(self, workdir):
        (workdir / "bad.csv").write_text("t,w1\n1,1.0\n2,2.0\n4,3.0\n")
        with pytest.raises(io_formats.FormatError, match=r"found 4 at row 3\b"):
            io_formats.read_trajectory_csv("bad.csv")

    def test_fractional_time_rejected(self, workdir):
        (workdir / "bad.csv").write_text("t,w1\n1,1.0\n2.5,2.0\n")
        with pytest.raises(io_formats.FormatError, match=r"found 2.5 at row 2\b"):
            io_formats.read_trajectory_csv("bad.csv")

    @pytest.mark.parametrize(
        "sidecar", ["{bad", "[1]", '{"m": "x"}', '{"m": 2}', '{"m": true}', '{"labels": "w1"}']
    )
    def test_malformed_sidecar_is_typed(self, workdir, capsys, sidecar):
        (workdir / "a.csv").write_text("t,w1\n1,1.0\n2,2.0\n")
        (workdir / "a.json").write_text(sidecar)
        with pytest.raises(io_formats.FormatError, match=r"a\.json"):
            io_formats.read_trajectory_csv("a.csv")
        assert main(["hankel", "--depth", "1", "a.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "a.json" in err and "Traceback" not in err

    def test_lenient_forms_parse(self, workdir):
        # trailing blank lines are skipped, quoted numbers and a time of 1.0 parse
        (workdir / "ok.csv").write_text('t,w1,w2\n1.0,"2.5",-1\n2,3e-1," 4 "\n\n\n')
        w = io_formats.read_trajectory_csv("ok.csv", all_inputs=True)
        assert w.data.tolist() == [[2.5, -1.0], [0.3, 4.0]]

    def test_header_only_has_no_samples(self, workdir):
        (workdir / "empty.csv").write_text("t,w1\n")
        (workdir / "blank.csv").write_text("t,w1\n\n\n")
        for name in ("empty.csv", "blank.csv"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(io_formats.FormatError, match="no samples"):
                    io_formats.read_trajectory_csv(name)


class TestSystemJson:
    def test_round_trip(self, workdir):
        sys = reference_system()
        io_formats.write_system_json("sys.json", sys)
        back = io_formats.read_system_json("sys.json")
        for name in "ABCDEF":
            assert np.array_equal(getattr(back, name), getattr(sys, name))

    def test_missing_field(self, workdir):
        (workdir / "sys.json").write_text('{"A": [[1]]}')
        with pytest.raises(io_formats.FormatError):
            io_formats.read_system_json("sys.json")


class TestKernelJson:
    def test_constant_round_trip(self, workdir):
        rep = AffineKernelRep(PolyMatrix([[X + 1, 2], [0, Poly([Fraction(1, 2)])]]), (1, Fraction(3, 4)))
        io_formats.write_kernel_json("k.json", rep)
        R, c = io_formats.read_kernel_json("k.json")
        assert R == rep.R and tuple(c) == rep.c

    def test_sequence_offset_parsed(self, workdir):
        doc = io_formats.poly_matrix_to_json(PolyMatrix([[X, 1]]))
        doc["c"] = [["1"], ["-1"], ["1"]]
        (workdir / "k.json").write_text(json.dumps(doc))
        R, c = io_formats.read_kernel_json("k.json")
        assert isinstance(c, OffsetSequence)
        assert c.length == 3 and c.g == 1


class TestCli:
    def test_pe_exit_codes(self, workdir, capsys):
        write_inputs("u.csv", [1, 2, 1, 2, 1, 2])
        assert main(["pe", "--class", "linear", "--order", "2", "u.csv"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["rank"] == 2
        assert main(["pe", "--class", "affine", "--order", "2", "u.csv"]) == 2

    def test_pe_table_matches_json_values(self, workdir, capsys):
        write_inputs("u.csv", [1, 2, 1, 2, 1, 2])
        main(["pe", "--class", "linear", "--order", "2", "u.csv"])
        payload = json.loads(capsys.readouterr().out)
        main(["pe", "--class", "linear", "--order", "2", "--table", "u.csv"])
        table = capsys.readouterr().out
        row = table.splitlines()[2].split()
        assert int(row[2]) == payload["rank"] and int(row[3]) == payload["target"]

    def test_usage_error_is_exit_one(self, workdir, capsys):
        assert main(["pe", "--class", "cubic", "--order", "1", "u.csv"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pe", "--class", "linear", "--order", "2", "--tol", "0", "u.csv"],
            ["pe", "--class", "linear", "--order", "2", "--tol", "nan", "u.csv"],
            ["pe", "--class", "linear", "--order", "2", "--tol", "inf", "u.csv"],
            ["complete", "--tini", "0", "--L", "1", "--tol", "0", "w.csv", "none.csv", "u1.csv"],
            ["gape", "--order", "0", "--n", "1", "u.csv"],
            ["invariants", "--tmax", "1", "u.csv"],
            # --tol reads only offset sequences; k.json's offset is constant
            ["consistency", "--tol", "0.5", "k.json"],
            # arguments the data leaves unread
            ["ident-kernel", "--L", "1", "--method", "exact", "--tol", "1e-6", "w.csv"],
            ["gape", "--order", "2", "--n", "1", "--d-l", "2", "w.csv"],
            ["simulate", "--system", "sys.json", "--horizon", "2", "u.csv"],
            ["simulate", "--system", "sys.json"],
            ["simulate", "--system", "free.json", "--horizon", "2", "u.csv"],
            # malformed files
            *[command + [name] for command in READS_JSON for name in NOT_A_JSON_OBJECT],
            ["smith", "rows.json"],
            ["smith", "entries.json"],
            ["lift", "--system", "sys_a.json"],
            ["linearize", "--plant", "pow.json", "--at", "2;0;2"],
            # values that are not numbers
            ["linearize", "--plant", "plant.json", "--at", "a;0;2"],
            ["linearize", "--plant", "plant.json", "--at", "2;0;2", "--mode", "fd:abc"],
            ["simulate", "--system", "sys.json", "--x0", "a", "u.csv"],
            # a binary float where an exact rational is read
            ["syzygy", "float.json"],
            ["consistency", "k_float.json"],
        ],
    )
    def test_bad_argument_is_exit_one_without_traceback(self, workdir, capsys, argv):
        write_inputs("u.csv", [1, 2, 1, 2, 1, 2])
        write_inputs("u1.csv", [3])
        # static law y = u: without --tol, complete answers y_f = 3
        io_formats.write_trajectory_csv("w.csv", Trajectory(np.repeat([[1.0], [2.0], [4.0]], 2, axis=1), m=1))
        R = PolyMatrix([[X + 1, X, X + 2], [X * X - 1, X * X - X, X * X + X - 2]])
        kernel = dict(io_formats.poly_matrix_to_json(R), c=["0", "1e-9"])
        (workdir / "k.json").write_text(json.dumps(kernel))
        io_formats.write_system_json("sys.json", reference_system())
        free = AffineStateSpace([[0.5]], np.zeros((1, 0)), [[1.0]], np.zeros((1, 0)), [1.0], [0.0])
        io_formats.write_system_json("free.json", free)
        (workdir / "text.json").write_text("not json")
        (workdir / "list.json").write_text("[1, 2]")
        (workdir / "bytes.json").write_bytes(b"\xff\xfe")
        matrix = io_formats.poly_matrix_to_json(R)
        (workdir / "rows.json").write_text(json.dumps(dict(matrix, rows="a")))
        (workdir / "entries.json").write_text(json.dumps(dict(matrix, entries=5)))
        # 0.1 used to be read as 3602879701896397/36028797018963968
        (workdir / "float.json").write_text(json.dumps({"rows": 2, "cols": 1, "entries": [[[0.1]], [[1]]]}))
        (workdir / "k_float.json").write_text(json.dumps(dict(kernel, c=[0.1, 0])))
        system = io_formats.system_to_json(reference_system())
        (workdir / "sys_a.json").write_text(json.dumps(dict(system, A="x")))
        plant = {"n": 1, "m": 1, "f": [["var", "x1"]], "h": [["var", "x1"]]}
        (workdir / "plant.json").write_text(json.dumps(plant))
        # x1^2.5 used to be read as x1^2
        (workdir / "pow.json").write_text(json.dumps(dict(plant, f=[["pow", ["var", "x1"], 2.5]])))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["smith", "--tol", "1e-3", "m.json"],
            ["hankel", "--table", "--depth", "2", "u.csv"],
            ["pe", "--seed", "1", "--class", "linear", "--order", "2", "u.csv"],
            ["pe", "--json", "--class", "linear", "--order", "2", "u.csv"],
            ["invariants", "--out", "art", "--tmax", "3", "u.csv"],
            ["hankel", "--m", "1", "--depth", "2", "u.csv"],
            ["invariants", "--m", "1", "--tmax", "3", "u.csv"],
        ],
    )
    def test_unread_flag_is_usage_error(self, workdir, capsys, argv):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_file_is_exit_one(self, workdir, capsys):
        assert main(["pe", "--class", "linear", "--order", "1", "nope.csv"]) == 1

    def test_hankel(self, workdir, capsys):
        write_inputs("u.csv", [1, 2, 3, 4])
        assert main(["hankel", "--depth", "2", "u.csv"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == [[1, 2, 3], [2, 3, 4]]

    def test_gape_and_rank_check(self, workdir, capsys):
        from atisys import simulate
        from atisys.scenario import reference_input

        sys = reference_system()
        u = reference_input("experiment-1")
        result = simulate(sys, np.zeros(2), u)
        io_formats.write_trajectory_csv("w.csv", result.io(u))
        io_formats.write_trajectory_csv("u.csv", u)
        io_formats.write_trajectory_csv("x.csv", result.x)
        assert main(["gape", "--order", "2", "--n", "2", "w.csv"]) == 0
        assert main(["gape", "--order", "2", "--n", "3", "w.csv"]) == 2
        capsys.readouterr()
        assert main(["gape", "--order", "2", "--n", "3", "--table", "w.csv"]) == 2
        table = capsys.readouterr().out
        assert "FAIL" in table and "6" in table  # names the deficient target
        assert main(["rank-check", "--L", "2", "u.csv", "x.csv"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 5 and payload["target"] == 5

    def test_simulate_lift_linearize(self, workdir, capsys):
        io_formats.write_system_json("sys.json", reference_system())
        write_inputs("u.csv", [0.5, -0.5])
        assert main(["simulate", "--system", "sys.json", "u.csv"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x"][1] == [1.5, 1.5]
        assert main(["lift", "--system", "sys.json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["A"] == [[1, 0, 1], [0, 2, 1], [0, 0, 1]]
        assert payload["char_poly_at_one"] == "0"
        plant = {
            "n": 1,
            "m": 1,
            "f": [["+", ["*", ["var", "x1"], ["var", "x1"]], ["var", "u1"]]],
            "h": [["var", "x1"]],
        }
        (workdir / "plant.json").write_text(json.dumps(plant))
        assert main(["linearize", "--plant", "plant.json", "--at", "2;0;2", "--mode", "analytic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["A"] == [[4]] and payload["E"] == [2]

    def test_point_state_and_mode_spellings(self, workdir, capsys):
        # empty groups and items, the --option=value form and fd:<step> all parse
        plant = {"n": 1, "m": 0, "f": [["*", ["var", "x1"], ["var", "x1"]]], "h": [["var", "x1"]]}
        (workdir / "plant.json").write_text(json.dumps(plant))
        assert main(["linearize", "--plant", "plant.json", "--at=2,;;2", "--mode", "fd:1e-4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["A"] == [[pytest.approx(4.0)]] and payload["B"] == [[]]
        io_formats.write_system_json("sys.json", reference_system())
        write_inputs("u.csv", [0.5, -0.5])
        assert main(["simulate", "--system", "sys.json", "--x0=1,,0.5,", "u.csv"]) == 0
        spelled = json.loads(capsys.readouterr().out)
        assert main(["simulate", "--system", "sys.json", "--x0", "1,0.5", "u.csv"]) == 0
        assert spelled == json.loads(capsys.readouterr().out)
        assert spelled["x"][0] == [1, 0.5]

    def test_ident_invariants_complete(self, workdir, capsys):
        from atisys import simulate
        from atisys.scenario import reference_input

        sys = reference_system()
        u = reference_input("experiment-1")
        result = simulate(sys, np.zeros(2), u)
        w = result.io(u)
        io_formats.write_trajectory_csv("w.csv", w)
        assert main(["invariants", "--tmax", "3", "w.csv"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 1 and payload["n"] == 2 and payload["ell"] == 1
        assert payload["diagnostics"]["ell_verbatim"] == 2

        assert main(["ident-kernel", "--L", "2", "--n", "2", "w.csv"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 2 * 2 - 2  # p*L - n

        from atisys import restrict

        window = restrict(w, 3, 5)
        io_formats.write_trajectory_csv("prefix.csv", restrict(window, 1, 2))
        io_formats.write_trajectory_csv("uf.csv", Trajectory.inputs(window.data[2:, :1]))
        assert main(["complete", "--tini", "2", "--L", "3", "w.csv", "prefix.csv", "uf.csv", "--out", "art"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.allclose(payload["y_f"], window.data[2:, 1:], atol=1e-8)
        assert (workdir / "art" / "y_f.csv").exists()

    def test_consistency_and_equiv(self, workdir, capsys):
        R = PolyMatrix([[X + 1, X, X + 2], [X * X - 1, X * X - X, X * X + X - 2]])
        doc = io_formats.poly_matrix_to_json(R)
        bad = dict(doc, c=["0", "1"])
        (workdir / "bad.json").write_text(json.dumps(bad))
        assert main(["consistency", "bad.json"]) == 2
        seq = dict(doc, c=[["-1", "2"], ["1", "-2"], ["-1", "2"], ["1", "-2"], ["-1", "2"], ["1", "-2"]])
        (workdir / "seq.json").write_text(json.dumps(seq))
        assert main(["consistency", "seq.json"]) == 0
        capsys.readouterr()

        rep = AffineKernelRep(PolyMatrix([[Poly([-1, 1])]]), (1,))
        io_formats.write_kernel_json("a.json", rep)
        io_formats.write_kernel_json("b.json", AffineKernelRep(PolyMatrix([[Poly([-2, 2])]]), (2,)))
        io_formats.write_kernel_json("c.json", AffineKernelRep(PolyMatrix([[Poly([-1, 1])]]), (2,)))
        assert main(["equiv", "a.json", "b.json"]) == 0
        assert main(["equiv", "a.json", "c.json"]) == 2

    def test_syzygy_and_smith(self, workdir, capsys):
        R = PolyMatrix([[X + 1, X, X + 2], [X * X - 1, X * X - X, X * X + X - 2]])
        (workdir / "m.json").write_text(json.dumps(io_formats.poly_matrix_to_json(R)))
        assert main(["syzygy", "m.json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 1
        assert payload["generators"] == [[["1", "-1"], ["1"]]]
        assert main(["smith", "m.json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant_factors"] == [["1"]]

    def test_example_scenario_deterministic(self, workdir, capsys):
        assert main(["example-sec7"]) == 0
        first = capsys.readouterr().out
        assert main(["example-sec7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert [row["rank"] for row in payload] == [5, 5, 5]
        assert all(row["ok"] for row in payload)

    def test_example_scenario_table_matches_json(self, workdir, capsys):
        main(["example-sec7"])
        payload = json.loads(capsys.readouterr().out)
        main(["example-sec7", "--table"])
        table = capsys.readouterr().out.splitlines()
        for row, line in zip(payload, table[2:]):
            cells = line.split()
            assert int(cells[3]) == row["rank"] and int(cells[4]) == row["target"]


class TestPublishedSchemas:
    def test_every_subcommand_output_validates(self, workdir, capsys):
        import jsonschema

        from atisys import simulate
        from atisys.schemas import cli_output_schema
        from atisys.scenario import reference_input

        sys_model = reference_system()
        u = reference_input("experiment-1")
        result = simulate(sys_model, np.zeros(2), u)
        w = result.io(u)
        io_formats.write_trajectory_csv("w.csv", w)
        io_formats.write_trajectory_csv("u.csv", u)
        io_formats.write_trajectory_csv("x.csv", result.x)
        io_formats.write_system_json("sys.json", sys_model)
        from atisys import restrict

        window = restrict(w, 3, 5)
        io_formats.write_trajectory_csv("prefix.csv", restrict(window, 1, 2))
        io_formats.write_trajectory_csv("uf.csv", Trajectory.inputs(window.data[2:, :1]))
        R = PolyMatrix([[X + 1, X, X + 2], [X * X - 1, X * X - X, X * X + X - 2]])
        (workdir / "m.json").write_text(json.dumps(io_formats.poly_matrix_to_json(R)))
        (workdir / "k.json").write_text(
            json.dumps(dict(io_formats.poly_matrix_to_json(R), c=["0", "0"]))
        )
        plant = {
            "n": 1,
            "m": 1,
            "f": [["+", ["*", ["var", "x1"], ["var", "x1"]], ["var", "u1"]]],
            "h": [["var", "x1"]],
        }
        (workdir / "plant.json").write_text(json.dumps(plant))

        invocations = {
            "hankel": ["hankel", "--depth", "2", "u.csv"],
            "pe": ["pe", "--class", "linear", "--order", "2", "u.csv"],
            "gape": ["gape", "--order", "2", "--n", "2", "w.csv"],
            "rank-check": ["rank-check", "--L", "2", "u.csv", "x.csv"],
            "complete": ["complete", "--tini", "2", "--L", "3", "w.csv", "prefix.csv", "uf.csv"],
            "ident-kernel": ["ident-kernel", "--L", "2", "--n", "2", "w.csv"],
            "invariants": ["invariants", "--tmax", "3", "w.csv"],
            "simulate": ["simulate", "--system", "sys.json", "u.csv"],
            "lift": ["lift", "--system", "sys.json"],
            "linearize": ["linearize", "--plant", "plant.json", "--at", "2;0;2"],
            "consistency": ["consistency", "k.json"],
            "equiv": ["equiv", "k.json", "k.json"],
            "syzygy": ["syzygy", "m.json"],
            "smith": ["smith", "m.json"],
            "example-sec7": ["example-sec7"],
        }
        for command, argv in invocations.items():
            code = main(argv)
            assert code in (0, 2), f"{command} errored"
            payload = json.loads(capsys.readouterr().out)
            jsonschema.validate(payload, cli_output_schema(command))


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows it
    src = str(Path(atisys.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, atisys, atisys.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
