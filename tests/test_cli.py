"""CLI tests: subcommands, exit codes, error JSON, and output determinism."""

import gc
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import momentflow

from momentflow import MomentSequence, cli, jsonio
from momentflow.cli import main

from helpers import GOLDEN_COMMANDS, ROOT, write_golden_inputs


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


def _workloads():
    """The benchmark's input generators, ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


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

    @pytest.mark.parametrize("args", [["distance", "--in"], ["oracle", "--degree", "2",
                                                            "--measure"]])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys, args):
        # the JSON decoder recurses once per level and gives up on deep input
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        assert main([*args, str(bad), "--out", str(tmp_path / "o.json")]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse"

    def test_key_count_is_checked_before_the_index_set_is_enumerated(self, tmp_path, capsys):
        # one moment for the C(243, 3) = 2,362,041 indices of n = 3, degree 240
        bad = tmp_path / "s.json"
        bad.write_text(json.dumps({"n": 3, "degree": 240,
                                   "moments": [{"alpha": [0, 0, 0], "value": 1.0}]}))
        start = time.perf_counter()
        code = main(["distance", "--in", str(bad), "--out", str(tmp_path / "o.json")])
        assert time.perf_counter() - start < 0.25
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "parse" and "1 indices given, 2362041 needed" in err["message"]

    def test_a_huge_declared_count_is_rejected_without_computing_it(self, tmp_path, capsys):
        # C(20000, 10000) has 6,019 digits: computing it in full costs time
        # that grows with the declared count, and it prints past the 4300 digits
        # that Python converts by default
        bad = tmp_path / "s.json"
        bad.write_text(json.dumps({"n": 10**4, "degree": 10**4, "moments": []}))
        start = time.perf_counter()
        code = main(["distance", "--in", str(bad), "--out", str(tmp_path / "o.json")])
        assert time.perf_counter() - start < 0.25
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "parse"
        assert "0 indices given, more than 2**64 needed" in err["message"]
        assert not (tmp_path / "o.json").exists()


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
        "argv",
        [
            ["oracle", "--measure", "m.json", "--degree", "-1"],
            ["oracle", "--measure", "m.json", "--degree", "2.5"],
            ["trajectory", "--equation", "heat", "--t0", "0", "--steps", "-1",
             "--in", "s.json"],
        ],
    )
    def test_negative_count_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"
        assert "integer >= 0" in err["message"]
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


class TestOverflowNamesTheInput:
    @pytest.mark.parametrize("command", ["distance", "recover"])
    def test_huge_nu_names_nu(self, tmp_path, capsys, command):
        # the search runs on the clock u = nu t, so no power of nu is taken
        # (nu**2 overflowed in the heat table at 1e300).  The distance's bound,
        # s_2 / (2 s_0 nu), is read with the binary exponents split off (2 s_0
        # nu overflowed at the caller's scale, and the command exited 3); the search
        # width in u, tol * nu = 1e298, ends the search on it.  The recovery
        # takes no bound at nu, and its start is bracketed to 1e-9 of the bound
        # whatever that width is, so it recovers the two atoms (it exited 3 on
        # the residual gate while the start took that width)
        inp, out = tmp_path / "s.json", tmp_path / "o.json"
        write_sequence(inp, [1, 0, 3, 0, 25])
        code = main([command, "--nu", "1e308", "--in", str(inp), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        got = read_strict_json(out)
        if command == "distance":
            assert got["distance"] == got["upper_bound"] == 1.5e-308
        else:
            assert got["atoms"] == [{"point": [-1.0], "weight": 0.5}, {"point": [1.0], "weight": 0.5}]
            assert abs(got["delta"] * 1e308 - 1.0) <= 1e-15

    @pytest.mark.parametrize("command", ["distance", "recover"])
    def test_overflowing_coefficient_names_the_table(self, tmp_path, capsys, command):
        # 120 s_0 overflows in the heat table of the moments as given, which
        # exited 3 naming coefficient (6, 3).  The search reads the
        # standardized moments, so both commands exit 0 with the distance of
        # the same input times 2**-1000, 0.0026396945208352076
        inp, out = tmp_path / "s.json", tmp_path / "o.json"
        write_sequence(inp, [3e306, -5e305, 1.2e305, -3e304, 8.5e303, -2.6e303, 8.8e302])
        assert main([command, "--in", str(inp), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        got = read_strict_json(out)
        assert got["distance" if command == "distance" else "delta"] == 0.0026396945208352076

    def test_nu_is_a_clock(self, tmp_path):
        # distance(nu) = distance(1) / nu.  At nu = 1e-300, nu**j underflowed in
        # the heat table and the distance read 6.06e299; at nu = 1e300, nu**2
        # overflowed there and the command exited 3
        inp = tmp_path / "s.json"
        write_sequence(inp, [1, 0, 3, 0, 25])
        distances = {}
        for nu in ("1e-300", "1e300"):
            out = tmp_path / f"{nu}.json"
            assert main(["distance", "--nu", nu, "--in", str(inp), "--out", str(out)]) == 0
            distances[nu] = read_strict_json(out)["distance"]
        assert abs(distances["1e-300"] * 1e-300 - 1.0) <= 1e-12
        # within the bracket width 1e-10 in t of the answer 1e-300
        assert 0.0 < distances["1e300"] <= 1e-10

    @pytest.mark.parametrize("k", [3, 8])
    def test_tiny_nu_gives_the_unit_distance_over_nu(self, tmp_path, k):
        # the first k = 3 and k = 8 inputs of recover-1d seed 3
        inp = tmp_path / "s.json"
        write_sequence(inp, _workloads().gen_recover(3, 1)[k - 2]["input"]["s"])
        distances = {}
        for nu in ("1", "1e-40", "1e-300"):
            out = tmp_path / f"{nu}.json"
            assert main(["distance", "--nu", nu, "--in", str(inp), "--out", str(out)]) == 0
            distances[float(nu)] = read_strict_json(out)["distance"]
        for nu in (1e-40, 1e-300):
            assert abs(distances[nu] * nu - distances[1.0]) <= 1e-9

    @pytest.mark.parametrize("scale, nu, message", [
        # 2 s_0 nu underflowed to 0, which the bound divided by, and the
        # command exited 3 naming it; with the exponents split off the bound
        # is 1.5e30, and the command answers (message None)
        ([1e-300, 0, 3e-300, 0, 2.5e-299], "1e-30", None),
        # n = 2: the bound 2 / 4e-320 overflows, which read as unbounded
        (1.0, "1e-320", "the distance bound overflows at nu = 1e-320, s_0 = 1.0"),
        # n = 2: 4 s_0 nu overflows, which read as a bound of 0.0, and then
        # exited 3 naming the denominator; the bound 5e-11 is a float
        (1e300, "1e10", None),
    ])
    def test_bound_that_is_not_a_float_names_nu_and_s0(self, tmp_path, capsys, scale, nu,
                                                       message):
        inp, out = tmp_path / "s.json", tmp_path / "o.json"
        if isinstance(scale, list):
            write_sequence(inp, scale)
        else:
            vals = dict.fromkeys(momentflow.enumerate_multiindices(2, 2), 0.0)
            vals[(0, 0)] = vals[(2, 0)] = vals[(0, 2)] = scale
            jsonio.dump_json(inp, jsonio.sequence_to_dict(MomentSequence(2, 2, vals)))
        if message is None:
            assert main(["distance", "--nu", nu, "--in", str(inp), "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            got = read_strict_json(out)
            if isinstance(scale, list):
                assert got["upper_bound"] == 1.5e30
                assert abs(got["distance"] - 1e30) <= 1e-15 * 1e30
            else:
                assert got == {"bound_only": True, "n": 2, "nu": 1e10, "upper_bound": 5e-11,
                               "unbounded": False}
            return
        assert main(["distance", "--nu", nu, "--in", str(inp), "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [{"error": "numeric",
                                                         "message": message}]
        assert not out.exists()

    def test_oracle_names_the_component(self, tmp_path, capsys):
        m, out = tmp_path / "m.json", tmp_path / "s.json"
        jsonio.dump_json(m, {"type": "gaussian_mixture", "n": 1, "nu": 1.0,
                             "components": [{"center": [1e200], "weight": 1.0,
                                             "time": 0.5}]})
        assert main(["oracle", "--measure", str(m), "--degree", "4",
                     "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "numeric"
        assert "component 0 (center [1e+200], time 0.5)" in err["message"]
        assert not out.exists()

    def test_oracle_names_the_atom(self, tmp_path, capsys):
        m, out = tmp_path / "m.json", tmp_path / "s.json"
        jsonio.dump_json(m, {"type": "atomic", "n": 1,
                             "atoms": [{"point": [1e200], "weight": 1.0}]})
        assert main(["oracle", "--measure", str(m), "--degree", "2",
                     "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "numeric"
        # the errno text after the colon is the platform's
        assert err["message"].startswith("moments of atom 0 (point [1e+200]) "
                                         "overflow at degree 2: ")
        assert not out.exists()


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


class TestStrictJsonNumbers:
    """A sequence or measure file holding a bool, a string or a fractional
    index where a number or an integer belongs is rejected, not converted."""

    SEQUENCE = {"n": 1, "degree": 2, "moments": [
        {"alpha": [0], "value": 1.0}, {"alpha": [1], "value": 0.0},
        {"alpha": [2], "value": 1.0}]}
    ATOMIC = {"type": "atomic", "n": 1, "atoms": [{"point": [0.5], "weight": 1.0}]}
    MIXTURE = {"type": "gaussian_mixture", "n": 1, "nu": 1.0,
               "components": [{"center": [0.0], "weight": 1.0, "time": 0.5}]}

    @staticmethod
    def _with(data, path, value):
        data = json.loads(json.dumps(data))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return data

    @pytest.mark.parametrize(
        "path, value",
        [
            (("n",), 1.7),
            (("degree",), 2.9),
            (("moments", 0, "alpha", 0), 0.6),
            (("moments", 1, "alpha", 0), "1"),
            (("moments", 1, "alpha", 0), True),
            (("moments", 0, "value"), True),
            (("moments", 0, "value"), "1.5"),
        ],
    )
    def test_sequence_field_is_parse_error(self, tmp_path, capsys, path, value):
        inp, out = tmp_path / "s.json", tmp_path / "o.json"
        inp.write_text(json.dumps(self._with(self.SEQUENCE, path, value)))
        code = main(["evolve", "--equation", "heat", "--t", "1",
                     "--in", str(inp), "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse"
        assert not out.exists()

    @pytest.mark.parametrize(
        "measure, path, value",
        [
            (ATOMIC, ("n",), True),
            (ATOMIC, ("atoms", 0, "point", 0), "0.5"),
            (ATOMIC, ("atoms", 0, "weight"), True),
            (MIXTURE, ("n",), 1.0),
            (MIXTURE, ("nu",), "1"),
            (MIXTURE, ("components", 0, "time"), False),
        ],
    )
    def test_measure_field_is_parse_error(self, tmp_path, capsys, measure, path, value):
        m, out = tmp_path / "m.json", tmp_path / "s.json"
        m.write_text(json.dumps(self._with(measure, path, value)))
        code = main(["oracle", "--measure", str(m), "--degree", "4",
                     "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse"
        assert not out.exists()

    def test_integer_valued_numbers_are_accepted(self, tmp_path):
        inp, out = tmp_path / "s.json", tmp_path / "o.json"
        inp.write_text(json.dumps(self._with(self.SEQUENCE, ("moments", 0, "value"), 1)))
        assert main(["evolve", "--equation", "heat", "--t", "1",
                     "--in", str(inp), "--out", str(out)]) == 0
        assert moments_tuple(read_json(out)) == (1.0, 0.0, 3.0)


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

    @pytest.mark.parametrize("drift, message", [
        ("0.5,x", "cannot parse drift vector '0.5,x': could not convert string to float: 'x'"),
        ("0.5,0.1,0.2", "drift vector has 3 entries, sequence has n = 2"),
        ("0.5", "drift vector has 1 entries, sequence has n = 2"),
    ])
    @pytest.mark.parametrize("command", ["evolve", "trajectory"])
    def test_a_bad_drift_vector_is_a_usage_error(self, tmp_path, capsys, command, drift,
                                                 message):
        from momentflow import enumerate_multiindices

        inp, out = tmp_path / "s.json", tmp_path / "out"
        vals = dict.fromkeys(enumerate_multiindices(2, 2), 1.0)
        jsonio.dump_json(inp, jsonio.sequence_to_dict(MomentSequence(2, 2, vals)))
        times = ["--t", "0.5"] if command == "evolve" else ["--t0", "0", "--steps", "3"]
        code = main([command, "--equation", "transport", "--a", drift, *times,
                     "--in", str(inp), "--out", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {"error": "usage", "message": message}
        assert not out.exists()


class TestNegativeValues:
    """A negative number in exponent form, as ``repr`` writes it, is a value."""

    @pytest.fixture
    def seq(self, tmp_path):
        from momentflow import enumerate_multiindices

        vals = {a: 1.0 + i for i, a in enumerate(enumerate_multiindices(2, 2))}
        inp = tmp_path / "s.json"
        jsonio.dump_json(inp, jsonio.sequence_to_dict(MomentSequence(2, 2, vals)))
        return inp

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("evolve", ["--equation", "heat", "--t", "-1e-3"]),
            ("evolve", ["--equation", "transport", "--a", "-1e-3,2e-1", "--t", "0.5"]),
            ("trajectory", ["--equation", "heat", "--t0", "-5e-1", "--t1", "-1e-05",
                            "--steps", "3"]),
            ("trajectory", ["--equation", "combined", "--nu", "5e-1", "--a", "-2e-1,-1e-1",
                            "--t0", "-1e-3", "--steps", "0"]),
        ],
    )
    def test_space_and_equals_forms_agree(self, tmp_path, seq, command, flags):
        outputs = []
        for glue in (False, True):
            argv = list(flags)
            if glue:  # --flag=value for every negative value
                for i in range(len(argv) - 1, 0, -1):
                    if argv[i].startswith("-") and not argv[i].startswith("--"):
                        argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
            out = tmp_path / f"out{int(glue)}"
            assert main([command, *argv, "--in", str(seq), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_negative_nu_reaches_the_sign_rule(self, tmp_path, seq, capsys):
        # a usage error ("expected one argument") before; now heat's nu > 0 rule
        code = main(["evolve", "--equation", "heat", "--nu", "-1e-3", "--t", "1",
                     "--in", str(seq), "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "numeric"

    def test_times_are_read_exactly(self, tmp_path, seq):
        out = tmp_path / "traj.csv"
        assert main(["trajectory", "--equation", "heat", "--t0", "-5e-1", "--t1", "-2.5e-1",
                     "--steps", "2", "--in", str(seq), "--out", str(out)]) == 0
        times = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert times == ["-0.5", "-0.375", "-0.25"]


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

    @pytest.mark.parametrize("s20, s02, named", [
        (-3.0, 1.0, "s_(2, 0) is -3.0"),  # the bound read -0.5
        (-1.0, 1.0, "s_(2, 0) is -1.0"),  # the bound read 0.0
        (1.0, -0.5, "s_(0, 2) is -0.5"),  # the bound read 0.125
        (-1.0, -2.0, "s_(2, 0) is -1.0"),  # the first negative one is named
    ])
    def test_bound_only_rejects_a_negative_second_moment(self, tmp_path, capsys, s20, s02,
                                                         named):
        # s_{2 e_i} is on the diagonal of the degree-1 moment matrix, so no
        # moment sequence has it negative: exit 3, as a 1-D sequence that is
        # not interior does
        vals = dict.fromkeys(momentflow.enumerate_multiindices(2, 2), 0.0)
        vals[(0, 0)], vals[(2, 0)], vals[(0, 2)] = 1.0, s20, s02
        inp, out = tmp_path / "s.json", tmp_path / "r.json"
        jsonio.dump_json(inp, jsonio.sequence_to_dict(MomentSequence(2, 2, vals)))
        assert main(["distance", "--in", str(inp), "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [{
            "error": "numeric", "message": f"not interior: moment {named}, not >= 0"}]
        assert not out.exists()


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

    def test_recover_degenerate_kernel_is_flagged(self, tmp_path):
        inp, out = tmp_path / "s.json", tmp_path / "r.json"
        write_sequence(inp, [1, 0, 2, 0, 12])
        assert main(["recover", "--in", str(inp), "--out", str(out)]) == 0
        res = read_json(out)
        assert res["degenerate_kernel"] is True
        assert [a["point"] for a in res["atoms"]] == [[pytest.approx(0.0, abs=1e-12)]]

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

    @staticmethod
    def _atomic_3d(path):
        jsonio.dump_json(path, {"type": "atomic", "n": 3,
                                "atoms": [{"point": [0.5, -1.0, 0.25], "weight": 0.3},
                                          {"point": [1.0, 0.5, -0.75], "weight": 0.7}]})

    @pytest.mark.parametrize("degree, count, past", [
        (82, 98_770, False), (83, 102_340, True), (100, 176_851, True)])
    def test_oracle_moments_are_capped(self, tmp_path, capsys, monkeypatch, degree, count,
                                       past):
        # n = 3: C(85, 3) = 98,770 moments are under the cap and C(86, 3) past
        # it.  The moments are never computed, so a run under the cap stops at
        # the stub and one past the cap has enumerated nothing
        assert cli.ORACLE_MAX_MOMENTS == 10**5
        m, out = tmp_path / "m.json", tmp_path / "s.json"
        self._atomic_3d(m)

        def uncomputed(mu, d):
            raise RuntimeError("the moments were computed")

        monkeypatch.setattr(cli, "oracle_moments_atomic", uncomputed)
        code = main(["oracle", "--measure", str(m), "--degree", str(degree),
                     "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        if past:
            assert code == 1
            assert err == {"error": "usage", "message": f"degree {degree} in n = 3 gives "
                           f"{count} moments, over the oracle cap of 100000"}
        else:
            assert code == 3 and err["message"] == "the moments were computed"
        assert not out.exists()

    @pytest.mark.parametrize("degree, count", [
        (10**9, "166666667666666668500000001"), (10**3000, "more than 2**64")])
    @pytest.mark.parametrize("measure", ["atomic", "gaussian_mixture"])
    def test_a_huge_oracle_degree_is_refused_at_once(self, tmp_path, capsys, measure, degree,
                                                      count):
        m, out = tmp_path / "m.json", tmp_path / "s.json"
        if measure == "atomic":
            self._atomic_3d(m)
        else:
            jsonio.dump_json(m, {"type": "gaussian_mixture", "n": 3, "nu": 1.0,
                                 "components": [{"center": [0.0, 1.0, -1.0], "weight": 1.0,
                                                 "time": 0.5}]})
        start = time.perf_counter()
        code = main(["oracle", "--measure", str(m), "--degree", str(degree),
                     "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out.exists()
        assert json.loads(capsys.readouterr().err)["message"] == (
            f"degree {degree} in n = 3 gives {count} moments, over the oracle cap of 100000")

    def test_the_oracle_cap_is_in_the_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "-h"])
        assert exc.value.code == 0
        assert "C(n + degree, n) moments may be at most 100000" in capsys.readouterr().out


class TestSequenceCap:
    """Each command that reads a sequence refuses one of more than
    ``cli.SEQUENCE_MAX_MOMENTS`` moments before it computes anything."""

    COMMANDS = {
        "evolve": ["--equation", "heat", "--t", "1"],
        "distance": [],
        "recover": [],
        "trajectory": ["--equation", "heat", "--t0", "0", "--t1", "1", "--steps", "2"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("n, degree, count, past", [
        (1, 99, 100, False), (1, 100, 101, True), (3, 7, 120, True)])
    def test_input_moments_are_capped(self, tmp_path, capsys, monkeypatch, command, n,
                                      degree, count, past):
        # a run at the cap stops at the stub of what it computes, and one past
        # the cap exits 1 at once, having computed nothing
        from momentflow import boundary, enumerate_multiindices, recovery

        assert cli.SEQUENCE_MAX_MOMENTS == 100
        inp, out = tmp_path / "s.json", tmp_path / "out"
        values = dict.fromkeys(enumerate_multiindices(n, degree), 1.0)
        jsonio.dump_json(inp, jsonio.sequence_to_dict(MomentSequence(n, degree, values)))

        def computed(*args, **kwargs):
            raise RuntimeError("computed")

        monkeypatch.setattr(cli, "_build_flow", computed)
        monkeypatch.setattr(boundary, "heat_distance_1d", computed)
        monkeypatch.setattr(recovery, "recover_gaussian_mixture", computed)
        start = time.perf_counter()
        code = main([command, *self.COMMANDS[command], "--in", str(inp), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        if past:
            assert time.perf_counter() - start < 1.0
            assert code == 1
            assert err == {"error": "usage", "message": f"{inp}: degree {degree} in n = {n} "
                           f"gives {count} moments, over the input cap of 100"}
        else:
            assert code == 3 and err["message"] == "computed"
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_the_cap_is_in_the_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        assert "moment sequence file (JSON) of at most 100 moments" in capsys.readouterr().out


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
        assert err == {"error": "numeric", "message": "flow overflows at t = 5000000000.0: "
                       "moment (4,) is not finite: inf"}
        assert not out.exists()

    def test_underflow_to_negative_zero_is_written_as_zero(self, tmp_path):
        # -1e-300 * exp(-300 t) underflows to -0.0, and the row's moment is
        # its exactly rounded sum, fsum([-0.0]) = 0.0
        inp, out = tmp_path / "s.json", tmp_path / "traj.csv"
        write_sequence(inp, [-1e-300, -1e-300, 2.0])
        assert main(["trajectory", "--equation", "transport", "--a=300", "--t0", "0",
                     "--t1", "2", "--steps", "2", "--in", str(inp), "--out", str(out)]) == 0
        assert out.read_bytes().split(b"\r\n") == [
            b"t,alpha_0,alpha_1,alpha_2", b"0.0,-1e-300,-1e-300,2.0",
            b"1.0,0.0,0.0,0.0", b"2.0,0.0,0.0,0.0", b""]

    def test_overflow_names_the_first_time_that_overflows(self, tmp_path, capsys):
        # exp(400 t) overflows from t = 1.5 on; the row at t = 0 is fine
        inp, out = tmp_path / "s.json", tmp_path / "traj.csv"
        write_sequence(inp, [1, 1, 1])
        code = main(["trajectory", "--equation", "transport", "--a=-400", "--t0", "0",
                     "--t1", "3", "--steps", "2", "--in", str(inp), "--out", str(out)])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [
            {"error": "numeric", "message": "flow overflows at t = 1.5: math range error"}]
        assert not out.exists()

    def test_non_finite_time_grid_is_numeric_error(self, tmp_path, capsys):
        # t1 - t0 overflows, so the grid holds nan and inf
        inp, out = tmp_path / "s.json", tmp_path / "traj.csv"
        write_sequence(inp, [1, 0, 1])
        code = main(["trajectory", "--equation", "heat", "--t0", "-1e308", "--t1", "1e308",
                     "--steps", "2", "--in", str(inp), "--out", str(out)])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err == {"error": "numeric", "message": "time grid from t0 = -1e+308 to "
                       "t1 = 1e+308 in 2 steps is not finite"}
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

    @pytest.mark.parametrize("steps, past", [(99_999, False), (100_000, True)])
    def test_rows_times_moments_are_capped(self, tmp_path, capsys, monkeypatch, steps, past):
        # ten moments: 99,999 steps are 1,000,000 cells, the cap, and one more
        # step is past it.  The flow is never built, so a run at the cap stops
        # at the stub and one past the cap has built nothing large
        assert cli.TRAJECTORY_MAX_CELLS == 10**6
        inp, out = tmp_path / "s.json", tmp_path / "traj.csv"
        write_sequence(inp, [1, 0, 1, 0, 3, 0, 15, 0, 105, 0])

        def unbuilt(args, s):
            raise RuntimeError("the flow was built")

        monkeypatch.setattr(cli, "_build_flow", unbuilt)
        code = main(["trajectory", "--equation", "heat", "--t0", "0", "--t1", "1",
                     "--steps", str(steps), "--in", str(inp), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        if past:
            assert code == 1
            assert err == {"error": "usage", "message": "100001 rows x 10 moments exceed "
                           "the trajectory cap of 1000000 cells"}
        else:
            assert code == 3 and err["message"] == "the flow was built"
        assert not out.exists()

    def test_the_cap_is_in_the_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trajectory", "-h"])
        assert exc.value.code == 0
        assert "(steps + 1) x moments may be at most 1000000" in capsys.readouterr().out


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


class TestProcessEntry:
    """``python -m momentflow.cli`` runs ``entry``, which freezes the start-up
    objects and then runs ``main``; ``main`` itself never freezes."""

    @staticmethod
    def _run(args, cwd, code=None):
        src = str(Path(momentflow.__file__).resolve().parents[1])
        head = ["-c", code] if code is not None else ["-m", "momentflow.cli"]
        return subprocess.run(
            [sys.executable, *head, *args], capture_output=True, text=True, cwd=cwd,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_golden_commands_write_the_golden_bytes(self, tmp_path, name):
        write_golden_inputs(tmp_path)
        proc = self._run([*GOLDEN_COMMANDS[name], "--out", "out"], tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert (tmp_path / "out").read_bytes() == (ROOT / "tests" / "golden" / name).read_bytes()

    @pytest.mark.parametrize("kind, code, args", [
        ("usage", 1, ["evolve", "--equation", "nope", "--t", "1", "--in", "x", "--out", "y"]),
        ("parse", 2, ["distance", "--in", "bad.json", "--out", "o.json"]),
        ("numeric", 3, ["recover", "--in", "boundary.json", "--out", "o.json"]),
    ])
    def test_errors_exit_with_one_json_line(self, tmp_path, kind, code, args):
        (tmp_path / "bad.json").write_text("{not json")
        write_sequence(tmp_path / "boundary.json", [1, 0, 1, 0, 1])  # not interior
        proc = self._run(args, tmp_path)
        assert (proc.returncode, proc.stdout) == (code, "")
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == kind

    def test_help_is_written_whole_to_a_pipe(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["-h"])
        assert exit_.value.code == 0
        proc = self._run(["-h"], tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")

    def test_entry_freezes_before_main_runs(self, tmp_path):
        code = ("import gc\n"
                "import momentflow.cli as cli\n"
                "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
                "cli.entry()\n")
        proc = self._run([], tmp_path, code)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0

    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_entry_flushes_then_ends_the_process(self, monkeypatch, code):
        calls = []

        class Stream:
            def __init__(self, name):
                self.name = name

            def flush(self):
                calls.append(self.name)

        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
        monkeypatch.setattr(sys, "stdout", Stream("stdout"))
        monkeypatch.setattr(sys, "stderr", Stream("stderr"))
        monkeypatch.setattr(os, "_exit", lambda c: calls.append(("_exit", c)))
        cli.entry()
        assert calls == ["freeze", "main", "stdout", "stderr", ("_exit", code)]

    @pytest.mark.parametrize("code", [0, 3])
    def test_entry_exits_normally_when_a_flush_fails(self, monkeypatch, code):
        class Broken:
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        ended = []
        monkeypatch.setattr(gc, "freeze", lambda: None)
        monkeypatch.setattr(cli, "main", lambda: code)
        monkeypatch.setattr(sys, "stdout", Broken())
        monkeypatch.setattr(os, "_exit", ended.append)
        with pytest.raises(SystemExit) as exit_:
            cli.entry()
        assert (exit_.value.code, ended) == (code, [])

    def test_commands_register_no_exit_handler(self, tmp_path):
        # entry ends the process with os._exit, which runs no atexit handler
        write_golden_inputs(tmp_path)
        code = ("import atexit, json, sys\n"
                "registered = []\n"
                "atexit.register = lambda f, *a, **k: registered.append(repr(f)) or f\n"
                "import momentflow.cli as cli\n"
                "codes = [cli.main([*argv, '--out', 'out']) for argv in json.loads(sys.argv[1])]\n"
                "print(json.dumps([codes, registered]))\n")
        proc = self._run([json.dumps(list(GOLDEN_COMMANDS.values()))], tmp_path, code)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0] * len(GOLDEN_COMMANDS), []]

    def test_main_freezes_nothing(self, tmp_path, capsys):
        write_sequence(tmp_path / "s.json", [1, 0, 3, 0, 25])
        frozen = gc.get_freeze_count()
        assert main(["distance", "--in", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "d.json")]) == 0
        assert main(["distance", "--in", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "d.json")]) == 2
        assert gc.get_freeze_count() == frozen


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
    def _imported_modules(argv, cwd, *flags):
        # -X importtime lists every module the process imports on stderr
        src = str(Path(momentflow.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, *flags, "-X", "importtime", "-m", "momentflow.cli", *argv],
            capture_output=True, text=True, cwd=cwd,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }

    @staticmethod
    def _assert_flow_code_only_for_flows(command, modules):
        # every command imports jsonio, so its name shows that -X importtime
        # listed the package's modules; only evolve and trajectory, which build
        # a flow, load exppoly and flows
        assert "momentflow.jsonio" in modules, command
        flow_code = {"momentflow.exppoly", "momentflow.flows"}
        want = flow_code if command in ("evolve", "trajectory") else set()
        assert flow_code & modules == want, command

    @pytest.mark.parametrize("name", [*GOLDEN_COMMANDS, "oracle"])
    def test_no_command_loads_the_kernel_writers(self, tmp_path, name):
        # momentflow.kernels is imported by the first compile, on a key's
        # second use, and one command uses each key once
        write_golden_inputs(tmp_path)
        jsonio.dump_json(tmp_path / "m.json", TestNonFiniteMeasure.MIXTURE)
        argv = (["oracle", "--measure", "m.json", "--degree", "6"] if name == "oracle"
                else GOLDEN_COMMANDS[name])
        modules = self._imported_modules([*argv, "--out", "out"], tmp_path)
        self._assert_flow_code_only_for_flows(argv[0], modules)
        assert "momentflow.kernels" not in modules
        if name != "oracle":
            assert (tmp_path / "out").read_bytes() == (ROOT / "tests" / "golden" / name
                                                       ).read_bytes()

    def test_importing_the_pipeline_does_not_load_the_kernel_writers(self):
        # ... until a second distance of one Hankel order compiles its kernels
        src = str(Path(momentflow.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "import momentflow.boundary, momentflow.recovery\n"
            "print('momentflow.kernels' in sys.modules)\n"
            "s = momentflow.MomentSequence.of_1d([1, 0, 3, 0, 25])\n"
            "momentflow.boundary.heat_distance_1d(s, 1.0)\n"
            "print('momentflow.kernels' in sys.modules)\n"
            "momentflow.boundary.heat_distance_1d(s, 1.0)\n"
            "print('momentflow.kernels' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
        )
        assert out.stdout.split() == ["False", "False", "True"]

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
            self._assert_flow_code_only_for_flows(argv[0], modules)
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

    def test_commands_import_no_argparse_typing_or_pathlib(self, tmp_path):
        # under -S, site preloads nothing, so the list is the CLI's own; argparse
        # brings gettext and locale, and argparse's help formatter shutil
        write_sequence(tmp_path / "s.json", [1, 0, 3, 0, 25])
        jsonio.dump_json(tmp_path / "m.json", TestNonFiniteMeasure.MIXTURE)
        flow = ["--equation", "combined", "--nu", "0.5", "--a", "-0.5"]
        banned = {"argparse", "gettext", "locale", "shutil", "typing", "pathlib"}
        for argv in (
            ["evolve", *flow, "--t", "1", "--in", "s.json", "--out", "o.json",
             "--flow-out", "f.json"],
            ["distance", "--in", "s.json", "--out", "d.json"],
            ["recover", "--in", "s.json", "--out", "r.json"],
            ["oracle", "--measure", "m.json", "--degree", "4", "--out", "o.json"],
            ["trajectory", *flow, "--t0", "0", "--t1", "1", "--steps", "4",
             "--in", "s.json", "--out", "o.csv"],
        ):
            modules = self._imported_modules(argv, tmp_path, "-S")
            self._assert_flow_code_only_for_flows(argv[0], modules)
            assert not banned & modules, argv[0]

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

    def test_cli_import_loads_no_flow_code_until_a_flow_is_read(self, tmp_path):
        # import momentflow.cli loads four of the package's modules; reading
        # back the flow that evolve --flow-out wrote loads exppoly and flows,
        # and gives the flow that was written
        s, flow = tmp_path / "s.json", tmp_path / "f.json"
        write_sequence(s, [1, 0, 3, 0, 25])
        assert main(["evolve", "--equation", "combined", "--nu", "0.5", "--a", "-0.5",
                     "--t", "1", "--in", str(s), "--out", str(tmp_path / "o.json"),
                     "--flow-out", str(flow)]) == 0
        src = str(Path(momentflow.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "import momentflow.cli\n"
            "from momentflow import jsonio\n"
            "def loaded():\n"
            "    return ' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'momentflow'))\n"
            "print(loaded())\n"
            "F = jsonio.flow_from_dict(jsonio.load_json(sys.argv[1]))\n"
            "print(loaded())\n"
            "from momentflow import MomentSequence, flows\n"
            "print(F == flows.combined_flow(MomentSequence.of_1d([1, 0, 3, 0, 25]), 0.5, (-0.5,)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(flow)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
        )
        assert out.stdout.splitlines() == [
            "momentflow momentflow.cli momentflow.core momentflow.jsonio",
            "momentflow momentflow.cli momentflow.core momentflow.exppoly momentflow.flows "
            "momentflow.jsonio",
            "True",
        ]

    def test_cli_import_and_help_compile_no_probe_kernel(self):
        # kernels are compiled on their second use, not on import
        src = str(Path(momentflow.__file__).resolve().parents[1])
        code = (
            "import contextlib, io, sys\n"
            "import momentflow.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        momentflow.cli.main(['distance', '--help'])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "loaded = 'momentflow.boundary' in sys.modules\n"
            "from momentflow import core\n"
            "print(loaded, len(core._KERNELS))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
        )
        assert out.stdout.strip() == "False 0"

    @pytest.mark.parametrize("name, sighted", [
        ("distance.json", [("rule", (2,)), ("search", (2,))]),
        ("recover.json", [("residual", (3, 6)), ("rule", (3,)), ("search", (3,)),
                          ("step", (3, 6))]),
        ("oracle", []),
    ])
    def test_distance_and_recover_compile_no_kernel(self, tmp_path, monkeypatch, name,
                                                     sighted):
        # one command uses each search order and kernel shape once, and a kernel
        # is compiled only on the second use; the outputs are the goldens, or
        # for the oracle what the loops give in this process
        root = Path(__file__).resolve().parents[1]
        if name == "oracle":
            jsonio.dump_json(tmp_path / "m.json", {
                "type": "gaussian_mixture", "n": 1, "nu": 0.7,
                "components": [{"center": [x], "weight": w, "time": t}
                               for x, w, t in ((-1.3, 0.4, 0.2), (0.1, 0.9, 0.0),
                                               (1.7, 0.35, 1.1))]})
            argv = ["oracle", "--measure", "m.json", "--degree", "6"]
        else:
            workloads = _workloads()
            vals = (workloads.RECOVER_GOLDEN_INPUT if name == "recover.json"
                    else [1, 0, 3, 0, 25])
            write_sequence(tmp_path / "s.json", vals)
            argv = [name.split(".")[0], "--in", "s.json"]
        code = (
            "import sys\n"
            "import momentflow.cli\n"
            "code = momentflow.cli.main(sys.argv[1:])\n"
            "from momentflow import core\n"
            "print(code, sorted(core._KERNELS), sorted(core._SIGHTED))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", "o.json"],
            capture_output=True, text=True, cwd=tmp_path, timeout=60, check=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert out.stdout.strip() == f"0 [] {sighted}"
        if name == "oracle":
            from momentflow import core

            monkeypatch.setattr(core, "sighted_kernel", lambda *a, **k: None)
            monkeypatch.chdir(tmp_path)
            assert main([*argv, "--out", "loops.json"]) == 0
            want = (tmp_path / "loops.json").read_bytes()
        else:
            want = (root / "tests" / "golden" / name).read_bytes()
        assert (tmp_path / "o.json").read_bytes() == want
