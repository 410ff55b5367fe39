"""Round-trip and determinism tests for the shared JSON schemas."""

import math

import numpy as np
import pytest

from momentflow import (
    AtomicMeasure,
    GaussianMixture,
    MomentSequence,
    combined_flow,
    heat_distance_1d,
    recover_gaussian_mixture,
)
from momentflow import jsonio
from momentflow.exppoly import ExpPoly, Term, canonicalize

from helpers import random_sequence


class TestSequenceSchema:
    def test_round_trip(self):
        rng = np.random.default_rng(51)
        s = random_sequence(rng, 2, 3)
        assert jsonio.sequence_from_dict(jsonio.sequence_to_dict(s)).values == s.values

    def test_schema_shape(self):
        d = jsonio.sequence_to_dict(MomentSequence.of_1d([1.0, 0.0]))
        assert d == {
            "n": 1,
            "degree": 1,
            "moments": [
                {"alpha": [0], "value": 1.0},
                {"alpha": [1], "value": 0.0},
            ],
        }

    def test_missing_index_rejected(self):
        with pytest.raises(ValueError):
            jsonio.sequence_from_dict(
                {"n": 1, "degree": 1, "moments": [{"alpha": [0], "value": 1.0}]}
            )

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            jsonio.sequence_from_dict(
                {
                    "n": 1,
                    "degree": 0,
                    "moments": [
                        {"alpha": [0], "value": 1.0},
                        {"alpha": [0], "value": 2.0},
                    ],
                }
            )


class TestMeasureSchema:
    def test_atomic_round_trip(self):
        mu = AtomicMeasure(2, (((1.0, -2.0), 0.5), ((0.0, 0.0), 1.5)))
        out = jsonio.measure_from_dict(jsonio.atomic_to_dict(mu))
        assert out == mu

    def test_gaussian_round_trip(self):
        g = GaussianMixture(1, 2.0, (((0.5,), 1.0, 0.25),))
        out = jsonio.measure_from_dict(jsonio.gaussian_mixture_to_dict(g))
        assert out == g

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown measure type"):
            jsonio.measure_from_dict({"type": "poisson"})


class TestExpPolyAndFlowSchema:
    def test_exppoly_round_trip(self):
        f = canonicalize(
            ExpPoly(2, (Term(1.5, 2, (0, 1)), Term(-0.5, 0, (2, -1), True)))
        )
        out = jsonio.exppoly_from_dict(jsonio.exppoly_to_dict(f))
        assert out == f

    def test_resonant_key_only_when_set(self):
        d = jsonio.exppoly_to_dict(ExpPoly(1, (Term(1.0, 0, (0,)),)))
        assert "resonant" not in d["terms"][0]

    def test_flow_round_trip(self):
        rng = np.random.default_rng(53)
        s = random_sequence(rng, 2, 4)
        F = combined_flow(s, 0.8, (1.0, -0.5))
        out = jsonio.flow_from_dict(jsonio.flow_to_dict(F))
        assert out.params == F.params
        assert out.entries == F.entries


    @pytest.mark.parametrize(
        "term",
        [
            {"coeff": "1.5", "power": 0, "rate": [0]},
            {"coeff": True, "power": 0, "rate": [0]},
            {"coeff": 1.5, "power": 1.0, "rate": [0]},
            {"coeff": 1.5, "power": 0, "rate": [False]},
        ],
    )
    def test_exppoly_rejects_converted_fields(self, term):
        with pytest.raises(ValueError, match="must be"):
            jsonio.exppoly_from_dict({"n": 1, "terms": [term]})

    @pytest.mark.parametrize(
        "path, value", [(("degree",), 4.0), (("params", "nu"), "0.8"),
                        (("params", "a", 0), True), (("entries", 0, "alpha", 0), 0.0)]
    )
    def test_flow_rejects_converted_fields(self, path, value):
        data = jsonio.flow_to_dict(combined_flow(MomentSequence.of_1d([1, 0, 2]), 0.8, (1.0,)))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValueError, match="must be"):
            jsonio.flow_from_dict(data)

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_exppoly_rejects_non_bool_resonant(self, value):
        term = {"coeff": 1.0, "power": 0, "rate": [0], "resonant": value}
        with pytest.raises(ValueError, match="term resonant must be true or false"):
            jsonio.exppoly_from_dict({"n": 1, "terms": [term]})

    def test_exppoly_rejects_rate_of_wrong_length(self):
        # a short rate would zip against the drift vector and drop a component
        data = {"n": 2, "terms": [{"coeff": 1.0, "power": 0, "rate": [1]}]}
        with pytest.raises(ValueError, match=r"term rate \[1\] does not have length n = 2"):
            jsonio.exppoly_from_dict(data)

    def test_flow_rejects_repeated_alpha(self):
        data = jsonio.flow_to_dict(combined_flow(MomentSequence.of_1d([1, 0, 2]), 0.8, (1.0,)))
        data["entries"].append(data["entries"][1])
        with pytest.raises(ValueError, match=r"duplicate index \(1,\)"):
            jsonio.flow_from_dict(data)

    def test_flow_rejects_entry_of_other_dimension(self):
        data = jsonio.flow_to_dict(combined_flow(MomentSequence(2, 0, {(0, 0): 1.0}),
                                                 0.8, (1.0, 0.5)))
        data["entries"][0]["exppoly"] = {"n": 1, "terms": [
            {"coeff": 1.0, "power": 0, "rate": [-1]}]}
        with pytest.raises(ValueError, match=r"entry \(0, 0\) has n = 1, the flow n = 2"):
            jsonio.flow_from_dict(data)

    @pytest.mark.parametrize("key", ["kind", "nu", "a"])
    def test_flow_rejects_missing_params_key(self, key):
        data = jsonio.flow_to_dict(combined_flow(MomentSequence.of_1d([1, 0, 2]), 0.8, (1.0,)))
        del data["params"][key]
        with pytest.raises(ValueError, match=f"flow params are missing key '{key}'"):
            jsonio.flow_from_dict(data)

    def test_integer_beyond_float_range_is_not_finite(self):
        seq = {"n": 1, "degree": 0, "moments": [{"alpha": [0], "value": 10**400}]}
        with pytest.raises(ValueError, match="not finite"):
            jsonio.sequence_from_dict(seq)


class TestReportSchemas:
    def test_boundary_report_round_trip(self):
        rep = heat_distance_1d(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        data = jsonio.boundary_report_to_dict(rep)
        back = jsonio.boundary_report_from_dict(data)
        assert back.distance == rep.distance
        assert back.interval_closed == rep.interval_closed
        assert back.upper_bound == rep.upper_bound
        assert np.array_equal(back.kernel_poly, rep.kernel_poly)

    @pytest.mark.parametrize("key", ["interval_closed", "truncated_odd"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_boundary_report_rejects_non_bool_flags(self, key, value):
        rep = heat_distance_1d(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        data = jsonio.boundary_report_to_dict(rep)
        data[key] = value
        with pytest.raises(ValueError, match=f"{key} must be true or false"):
            jsonio.boundary_report_from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [("distance", True), ("upper_bound", "1.5"), ("distance", "nan"),
         ("kernel_poly", ["-1", 0.0, 1.0]), ("kernel_poly", [-1.0, False, 1.0]),
         ("kernel_poly", [-1.0, 0.0, True])],
        ids=["distance-bool", "upper_bound-string", "distance-nan-string",
             "kernel_poly-string", "kernel_poly-false", "kernel_poly-true"],
    )
    def test_boundary_report_rejects_non_numbers(self, key, value):
        # each was converted (to 1.0, 1.5, nan, -1.0, 0.0 and 1.0) when read
        rep = heat_distance_1d(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        data = jsonio.boundary_report_to_dict(rep)
        data[key] = value
        with pytest.raises(ValueError, match="must be a number"):
            jsonio.boundary_report_from_dict(data)

    def test_boundary_report_null_is_infinite(self):
        rep = heat_distance_1d(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        data = {**jsonio.boundary_report_to_dict(rep), "distance": None, "upper_bound": None}
        back = jsonio.boundary_report_from_dict(data)
        assert back.distance == math.inf and back.upper_bound == math.inf

    def test_recovery_result_shape(self):
        res = recover_gaussian_mixture(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        data = jsonio.recovery_result_to_dict(res)
        assert data["mixture"]["type"] == "gaussian_mixture"
        assert data["delta"] == res.delta
        assert len(data["atoms"]) == 2


class TestDeterminism:
    def test_dumps_round_trip_is_stable(self):
        rng = np.random.default_rng(55)
        s = random_sequence(rng, 1, 6)
        a = jsonio.dumps(jsonio.sequence_to_dict(s))
        back = jsonio.sequence_from_dict(jsonio.sequence_to_dict(s))
        b = jsonio.dumps(jsonio.sequence_to_dict(back))
        assert a == b

    def test_float_shortest_roundtrip(self):
        val = 0.1 + 0.2
        text = jsonio.dumps({"v": val})
        import json

        assert json.loads(text)["v"] == val


class TestFileIO:
    def test_str_and_pathlike_paths(self, tmp_path):
        data = {"b": [0.1, None], "a": 1}
        jsonio.dump_json(tmp_path / "p.json", data)
        jsonio.dump_json(str(tmp_path / "s.json"), data)
        for name in ("p.json", "s.json"):
            assert (tmp_path / name).read_text() == jsonio.dumps(data)
            assert jsonio.load_json(str(tmp_path / name)) == data
            assert jsonio.load_json(tmp_path / name) == data

    def test_unserializable_data_writes_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            jsonio.dump_json(tmp_path / "o.json", {"v": math.nan})
        assert not (tmp_path / "o.json").exists()
