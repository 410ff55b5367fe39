"""CLI tests: subcommands, exit codes, error JSON, and output determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentflow

from momentflow import MomentSequence, jsonio
from momentflow.cli import main


def write_sequence(path, vals):
    jsonio.dump_json(path, jsonio.sequence_to_dict(MomentSequence.of_1d(vals)))


def read_json(path):
    return json.loads(path.read_text())


def moments_tuple(data):
    return tuple(m["value"] for m in data["moments"])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_strict_json(path):
    """Parse as RFC 8259 JSON: NaN and Infinity are errors."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


class TestEvolve:
    def test_heat_dirac(self, tmp_path):
        inp, out = tmp_path / "s.json", tmp_path / "out.json"
        write_sequence(inp, [1, 0, 0])
        code = main(["evolve", "--equation", "heat", "--t", "1",
                     "--in", str(inp), "--out", str(out)])
        assert code == 0
        assert moments_tuple(read_json(out)) == (1.0, 0.0, 2.0)

    def test_transport(self, tmp_path):
        inp, out = tmp_path / "s.json", tmp_path / "out.json"
        write_sequence(inp, [1, 0, 1])
        code = main(["evolve", "--equation", "transport", "--a", "1.0",
                     "--t", str(math.log(2)), "--in", str(inp), "--out", str(out)])
        assert code == 0
        got = moments_tuple(read_json(out))
        assert got[0] == pytest.approx(0.5, rel=1e-14)
        assert got[2] == pytest.approx(0.125, rel=1e-14)

    def test_flow_out(self, tmp_path):
        inp, out, fout = tmp_path / "s.json", tmp_path / "o.json", tmp_path / "f.json"
        write_sequence(inp, [1, 0, 1])
        code = main(["evolve", "--equation", "combined", "--nu", "1", "--a", "1.0",
                     "--t", "0.5", "--in", str(inp), "--out", str(out),
                     "--flow-out", str(fout)])
        assert code == 0
        flow = read_json(fout)
        assert flow["params"]["kind"] == "combined"
        assert len(flow["entries"]) == 3

    def test_heat_rejects_drift(self, tmp_path, capsys):
        inp = tmp_path / "s.json"
        write_sequence(inp, [1, 0, 0])
        code = main(["evolve", "--equation", "heat", "--a", "1.0", "--t", "1",
                     "--in", str(inp), "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["evolve", "--equation", "nope", "--t", "1",
                     "--in", "x", "--out", "y"]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"

    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evolve", "--equation", "heat", "--t", "1",
                     "--in", str(bad), "--out", str(tmp_path / "o.json")]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse"

    def test_schema_violation_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 1, "degree": 2, "moments": []}))
        assert main(["evolve", "--equation", "heat", "--t", "1",
                     "--in", str(bad), "--out", str(tmp_path / "o.json")]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse"

    def test_numeric_error_is_3(self, tmp_path, capsys):
        inp = tmp_path / "s.json"
        write_sequence(inp, [1, 0, 1, 0, 1])  # boundary point: not interior
        assert main(["recover", "--in", str(inp),
                     "--out", str(tmp_path / "o.json")]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "numeric"
        assert "not interior" in err["message"]


class TestInputValidation:
    @pytest.mark.parametrize("command", ["distance", "recover"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--tol", "0"), ("--tol", "-1e-10"), ("--tol", "nan"),
         ("--nu", "-1"), ("--nu", "0"), ("--nu", "inf")],
    )
    def test_nonpositive_tol_and_nu_are_usage_errors(
        self, tmp_path, capsys, command, flag, value
    ):
        inp = tmp_path / "s.json"
        write_sequence(inp, [1, 0, 3, 0, 25])
        code = main([command, flag, value, "--in", str(inp),
                     "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"
        assert flag in err["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--equation", "heat", "--t", "inf"],
            ["evolve", "--equation", "heat", "--t", "nan"],
            ["evolve", "--equation", "combined", "--nu", "nan", "--t", "1"],
            ["evolve", "--equation", "combined", "--nu", "inf", "--t", "1"],
            ["evolve", "--equation", "transport", "--a", "nan", "--t", "1"],
            ["evolve", "--equation", "combined", "--a", "inf", "--t", "1"],
            ["trajectory", "--equation", "heat", "--t0", "nan", "--steps", "2"],
            ["trajectory", "--equation", "heat", "--t0", "0", "--t1", "inf",
             "--steps", "2"],
            ["trajectory", "--equation", "heat", "--nu", "inf", "--t0", "0",
             "--steps", "2"],
            ["trajectory", "--equation", "transport", "--a=-inf", "--t0", "0",
             "--steps", "2"],
        ],
    )
    def test_nonfinite_flow_flag_is_usage_error(self, tmp_path, capsys, argv):
        inp, out = tmp_path / "s.json", tmp_path / "o"
        write_sequence(inp, [1, 0, 3, 0, 25])
        assert main([*argv, "--in", str(inp), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "usage"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flow, code",
        [
            (["--equation", "heat", "--nu", "-1"], 3),
            (["--equation", "combined", "--nu", "-1", "--a", "0.5"], 3),
            (["--equation", "transport", "--nu", "1", "--a", "0.5"], 1),
            (["--equation", "combined", "--nu", "0", "--a", "-0.5"], 0),
        ],
    )
    def test_sign_rules_per_equation(self, tmp_path, flow, code):
        inp = tmp_path / "s.json"
        write_sequence(inp, [1, 0, 3, 0, 25])
        assert main(["evolve", *flow, "--t", "1", "--in", str(inp),
                     "--out", str(tmp_path / "o.json")]) == code

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_moment_is_parse_error(self, tmp_path, capsys, token):
        inp, out = tmp_path / "s.json", tmp_path / "o.json"
        inp.write_text(
            '{"n": 1, "degree": 1, "moments": [{"alpha": [0], "value": 1.0}, '
            f'{{"alpha": [1], "value": {token}}}]}}'
        )
        code = main(["evolve", "--equation", "heat", "--t", "1",
                     "--in", str(inp), "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse"
        assert not out.exists()


class TestOverflow:
    N2 = {alpha: 1.0 for alpha in momentflow.enumerate_multiindices(2, 4)}

    @pytest.mark.parametrize(
        "vals, flow, t",
        [
            # t**2 overflows in the power table
            (N2, ["--equation", "heat"], "1e200"),
            # exp(4000) overflows
            (N2, ["--equation", "transport", "--a=-1,1"], "1000"),
            # 12 s_2 t overflows to inf without raising
            ([1, 0, 1e300, 0, 1e300], ["--equation", "heat"], "1e10"),
            # 12 s_2 t and 12 s_0 t**2 overflow to +inf and -inf
            ([-1e300, 0, 1e300, 0, 0], ["--equation", "heat"], "1e10"),
        ],
    )
    def test_error_names_the_time(self, tmp_path, capsys, vals, flow, t):
        inp, out = tmp_path / "s.json", tmp_path / "o.json"
        if isinstance(vals, dict):
            jsonio.dump_json(inp, jsonio.sequence_to_dict(MomentSequence(2, 4, vals)))
        else:
            write_sequence(inp, vals)
        assert main(["evolve", *flow, "--t", t, "--in", str(inp),
                     "--out", str(out), "--flow-out", str(tmp_path / "f.json")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "numeric"
        assert f"t = {float(t)!r}" in err["message"]
        assert not out.exists() and not (tmp_path / "f.json").exists()


class TestNonFiniteMeasure:
    ATOMIC = {"type": "atomic", "n": 1,
              "atoms": [{"point": [1.0], "weight": 0.5}]}
    MIXTURE = {"type": "gaussian_mixture", "n": 1, "nu": 1.0,
               "components": [{"center": [0.0], "weight": 1.0, "time": 0.5}]}

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "measure, path",
        [
            (ATOMIC, ("atoms", 0, "point", 0)),
            (ATOMIC, ("atoms", 0, "weight")),
            (MIXTURE, ("components", 0, "center", 0)),
            (MIXTURE, ("components", 0, "weight")),
            (MIXTURE, ("components", 0, "time")),
            (MIXTURE, ("nu",)),
        ],
        ids=["atom-point", "atom-weight", "center", "component-weight", "time", "nu"],
    )
    def test_nonfinite_field_is_parse_error(
        self, tmp_path, capsys, token, measure, path
    ):
        data = json.loads(json.dumps(measure))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "__BAD__"
        m, out = tmp_path / "m.json", tmp_path / "s.json"
        m.write_text(json.dumps(data).replace('"__BAD__"', token))
        code = main(["oracle", "--measure", str(m), "--degree", "4",
                     "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "parse"
        assert "not finite" in err["message"]
        assert not out.exists()


class TestNegativeDrift:
    @pytest.mark.parametrize("command", ["evolve", "trajectory"])
    def test_space_and_equals_forms_agree(self, tmp_path, command):
        from momentflow import enumerate_multiindices

        vals = {a: 1.0 + i for i, a in enumerate(enumerate_multiindices(2, 2))}
        inp = tmp_path / "s.json"
        jsonio.dump_json(inp, jsonio.sequence_to_dict(MomentSequence(2, 2, vals)))
        times = ["--t", "0.5"] if command == "evolve" else ["--t0", "0", "--t1", "1",
                                                            "--steps", "3"]
        outputs = []
        for form in (["--a", "-0.5,0.3"], ["--a=-0.5,0.3"]):
            out = tmp_path / f"out{len(outputs)}"
            code = main([command, "--equation", "transport", *form, *times,
                         "--in", str(inp), "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        if command == "evolve":
            got = read_json(tmp_path / "out0")["moments"]
            # transport: s_alpha(t) = s_alpha(0) exp(-sum_i a_i (alpha_i + 1) t)
            for item, (alpha, s0) in zip(got, vals.items()):
                rate = -0.5 * (alpha[0] + 1) + 0.3 * (alpha[1] + 1)
                assert item["value"] == pytest.approx(s0 * math.exp(-rate * 0.5),
                                                      rel=1e-14)


class TestDistance:
    def test_worked_instance(self, tmp_path):
        inp, out = tmp_path / "s.json", tmp_path / "r.json"
        write_sequence(inp, [1, 0, 3, 0, 25])
        assert main(["distance", "--in", str(inp), "--out", str(out)]) == 0
        rep = read_json(out)
        assert rep["distance"] == pytest.approx(1.0, abs=1e-9)
        assert rep["upper_bound"] == 1.5
        assert rep["interval_closed"] is True
        assert rep["kernel_poly"] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-8)

    @pytest.mark.filterwarnings("ignore:odd top degree")
    @pytest.mark.parametrize("vals", [[2.0, 0.5], [0, 0, 0, 0, 0]])
    def test_unbounded_distance_is_strict_json(self, tmp_path, vals):
        inp, out = tmp_path / "s.json", tmp_path / "r.json"
        write_sequence(inp, vals)
        assert main(["distance", "--in", str(inp), "--out", str(out)]) == 0
        rep = read_strict_json(out)
        assert rep["unbounded"] is True
        assert rep["distance"] is None
        assert rep["upper_bound"] is None
        back = jsonio.boundary_report_from_dict(rep)
        assert back.distance == math.inf and back.upper_bound == math.inf

    def test_odd_degree_warning_is_one_json_line(self, tmp_path, capsys):
        vals = [1, 0, 3, 0, 25, 0]
        inp, out = tmp_path / "s.json", tmp_path / "r.json"
        write_sequence(inp, vals)
        assert main(["distance", "--in", str(inp), "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "warning": "odd_degree",
            "message": "odd top degree 5: dropping the top moment for Hankel analysis",
        }
        with pytest.warns(momentflow.boundary.OddDegreeWarning):
            report = momentflow.heat_distance_1d(MomentSequence.of_1d(vals), 1.0)
        assert out.read_text() == jsonio.dumps(jsonio.boundary_report_to_dict(report))

    def test_finite_distance_is_not_unbounded(self, tmp_path):
        inp, out = tmp_path / "s.json", tmp_path / "r.json"
        write_sequence(inp, [1, 0, 3, 0, 25])
        assert main(["distance", "--in", str(inp), "--out", str(out)]) == 0
        assert read_strict_json(out)["unbounded"] is False

    def test_unbounded_bound_only_is_strict_json(self, tmp_path):
        s = MomentSequence(2, 1, {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.0})
        inp, out = tmp_path / "s.json", tmp_path / "r.json"
        jsonio.dump_json(inp, jsonio.sequence_to_dict(s))
        assert main(["distance", "--in", str(inp), "--out", str(out)]) == 0
        rep = read_strict_json(out)
        assert rep["bound_only"] is True
        assert rep["unbounded"] is True
        assert rep["upper_bound"] is None

    def test_bound_only_for_n2(self, tmp_path):
        from momentflow import enumerate_multiindices

        vals = dict.fromkeys(enumerate_multiindices(2, 2), 0.0)
        vals[(0, 0)] = 1.0
        vals[(2, 0)] = 2.0
        vals[(0, 2)] = 2.0
        s = MomentSequence(2, 2, vals)
        inp, out = tmp_path / "s.json", tmp_path / "r.json"
        jsonio.dump_json(inp, jsonio.sequence_to_dict(s))
        assert main(["distance", "--in", str(inp), "--out", str(out)]) == 0
        rep = read_json(out)
        assert rep["bound_only"] is True
        assert rep["upper_bound"] == 1.0
        assert rep["unbounded"] is False


class TestRecoverAndOracle:
    def test_recover_worked_instance(self, tmp_path):
        inp, out = tmp_path / "s.json", tmp_path / "r.json"
        write_sequence(inp, [1, 0, 3, 0, 25])
        assert main(["recover", "--in", str(inp), "--out", str(out)]) == 0
        res = read_json(out)
        assert res["delta"] == pytest.approx(1.0, abs=1e-9)
        assert res["residual"] <= 1e-10
        points = sorted(a["point"][0] for a in res["atoms"])
        assert points == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_recover_zero_sequence_is_numeric_error(self, tmp_path, capsys):
        inp, out = tmp_path / "s.json", tmp_path / "r.json"
        write_sequence(inp, [0, 0, 0, 0, 0])
        assert main(["recover", "--in", str(inp), "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "numeric" and "zero sequence" in err["message"]
        assert not out.exists()

    def test_oracle_atomic(self, tmp_path):
        m, out = tmp_path / "m.json", tmp_path / "s.json"
        jsonio.dump_json(m, {"type": "atomic", "n": 1,
                             "atoms": [{"point": [-1.0], "weight": 0.5},
                                       {"point": [1.0], "weight": 0.5}]})
        assert main(["oracle", "--measure", str(m), "--degree", "4",
                     "--out", str(out)]) == 0
        assert moments_tuple(read_json(out)) == (1.0, 0.0, 1.0, 0.0, 1.0)

    def test_oracle_gaussian(self, tmp_path):
        m, out = tmp_path / "m.json", tmp_path / "s.json"
        jsonio.dump_json(m, {"type": "gaussian_mixture", "n": 1, "nu": 1.0,
                             "components": [{"center": [0.0], "weight": 1.0,
                                             "time": 0.5}]})
        assert main(["oracle", "--measure", str(m), "--degree", "4",
                     "--out", str(out)]) == 0
        assert moments_tuple(read_json(out)) == (1.0, 0.0, 1.0, 0.0, 3.0)


class TestTrajectory:
    GOLDEN = Path(__file__).parent / "golden" / "trajectory.csv"

    def test_matches_golden_bytes(self, tmp_path):
        from momentflow import enumerate_multiindices

        vals = {a: (1 + a[0]) / (2 + a[1]) - 0.25 * a[0] * a[1]
                for a in enumerate_multiindices(2, 4)}
        inp, out = tmp_path / "s.json", tmp_path / "traj.csv"
        jsonio.dump_json(inp, jsonio.sequence_to_dict(MomentSequence(2, 4, vals)))
        assert main(["trajectory", "--equation", "combined", "--nu", "0.5",
                     "--a", "-0.4,0.7", "--t0", "0", "--t1", "2", "--steps", "20",
                     "--in", str(inp), "--out", str(out)]) == 0
        got = out.read_bytes()
        assert got == self.GOLDEN.read_bytes()
        assert got.count(b"\r\n") == 22 and got.endswith(b"\r\n")

    def test_non_finite_row_is_numeric_error(self, tmp_path, capsys):
        # s_4(t) = s_4 + 12 s_2 t + 12 s_0 t^2 overflows to inf at t = 1e10
        inp, out = tmp_path / "s.json", tmp_path / "traj.csv"
        write_sequence(inp, [1, 0, 1e300, 0, 1e300])
        code = main(["trajectory", "--equation", "heat", "--t0", "0", "--t1", "1e10",
                     "--steps", "2", "--in", str(inp), "--out", str(out)])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "numeric" and "not finite" in err["message"]
        assert not out.exists()

    def test_zero_steps_equals_evolve(self, tmp_path):
        inp = tmp_path / "s.json"
        write_sequence(inp, [1, 0, 0])
        csv_out = tmp_path / "traj.csv"
        json_out = tmp_path / "evolved.json"
        assert main(["trajectory", "--equation", "heat", "--t0", "1", "--t1", "2",
                     "--steps", "0", "--in", str(inp), "--out", str(csv_out)]) == 0
        assert main(["evolve", "--equation", "heat", "--t", "1",
                     "--in", str(inp), "--out", str(json_out)]) == 0
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "t,alpha_0,alpha_1,alpha_2"
        assert len(lines) == 2
        row = [float(x) for x in lines[1].split(",")]
        assert tuple(row[1:]) == moments_tuple(read_json(json_out))

    def test_grid_sampling(self, tmp_path):
        inp = tmp_path / "s.json"
        write_sequence(inp, [1, 0, 0])
        out = tmp_path / "traj.csv"
        assert main(["trajectory", "--equation", "heat", "--t0", "0", "--t1", "1",
                     "--steps", "4", "--in", str(inp), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        last = [float(x) for x in lines[-1].split(",")]
        assert last == [1.0, 1.0, 0.0, 2.0]


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        inp = tmp_path / "s.json"
        write_sequence(inp, [1, 0, 3, 0, 25])
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"report_{tag}.json"
            assert main(["distance", "--in", str(inp), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestImportCost:
    def test_cli_and_recovery_do_not_import_scipy(self):
        # scipy.optimize alone costs about 0.4 s of import; the CLI and the
        # recovery pipeline must stay off scipy entirely
        src = str(Path(momentflow.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "import momentflow.cli\n"
            "import momentflow as mf\n"
            "mf.recover_gaussian_mixture(mf.MomentSequence.of_1d([1, 0, 3, 0, 25]))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
        )
        assert out.stdout.strip() == "[]"

    @staticmethod
    def _imported_modules(argv, cwd):
        # -X importtime lists every module the process imports on stderr
        src = str(Path(momentflow.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "momentflow.cli", *argv],
            capture_output=True, text=True, cwd=cwd,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }

    def test_pure_python_commands_do_not_import_numpy(self, tmp_path):
        write_sequence(tmp_path / "s.json", [1, 0, 3, 0, 25])
        jsonio.dump_json(tmp_path / "m.json", TestNonFiniteMeasure.MIXTURE)
        flow = ["--equation", "combined", "--nu", "0.5", "--a", "-0.5"]
        for argv in (
            ["evolve", *flow, "--t", "1", "--in", "s.json", "--out", "o.json",
             "--flow-out", "f.json"],
            ["oracle", "--measure", "m.json", "--degree", "4", "--out", "o.json"],
            ["trajectory", *flow, "--t0", "0", "--t1", "1", "--steps", "4",
             "--in", "s.json", "--out", "o.csv"],
        ):
            modules = self._imported_modules(argv, tmp_path)
            assert "momentflow.flows" in modules
            assert not {m for m in modules if m.split(".")[0] == "numpy"}, argv[0]
            # dataclasses pulls in inspect, which nothing else here needs
            assert not {"dataclasses", "inspect"} & modules, argv[0]

    def test_distance_and_recover_do_not_import_numpy(self, tmp_path):
        # the golden inputs: the worked instance and three atoms heat-evolved by 0.9
        write_sequence(tmp_path / "s.json", [1, 0, 3, 0, 25])
        mu = momentflow.AtomicMeasure(1, (((-1.5,), 0.6), ((0.2,), 0.8), ((1.1,), 0.4)))
        three = momentflow.evaluate_flow(
            momentflow.heat_flow(momentflow.oracle_moments_atomic(mu, 6), 1.0), 0.9
        )
        jsonio.dump_json(tmp_path / "t.json", jsonio.sequence_to_dict(three))
        for argv in (["distance", "--in", "s.json", "--out", "d.json"],
                     ["recover", "--in", "t.json", "--out", "r.json"]):
            modules = self._imported_modules(argv, tmp_path)
            assert "momentflow.hankel" in modules
            assert not {m for m in modules if m.split(".")[0] in ("numpy", "scipy")}, argv[0]
            assert not {"dataclasses", "inspect"} & modules, argv[0]
        assert read_json(tmp_path / "d.json")["distance"] == 1.0
        assert len(read_json(tmp_path / "r.json")["atoms"]) == 3

    def test_cli_import_loads_no_hankel_boundary_or_recovery(self):
        src = str(Path(momentflow.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "import momentflow.cli\n"
            "print(sorted(m for m in ('momentflow.boundary', 'momentflow.hankel',\n"
            "                         'momentflow.recovery') if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
        )
        assert out.stdout.strip() == "[]"
