"""Tests for the heat distance and boundary projection."""

import math

import numpy as np
import pytest

from momentflow import (
    AtomicMeasure,
    MomentSequence,
    NotInteriorError,
    boundary_project,
    build_hankel,
    classify_psd,
    distance_upper_bound,
    evaluate_flow,
    heat_distance_1d,
    heat_flow,
    oracle_moments_atomic,
)
from momentflow.boundary import _lambda_min, backward_hankel_coefficients
from momentflow.flows import heat_flow_1d_closed
from momentflow.hankel import INDEFINITE

from helpers import random_sequence


class TestDistanceUpperBound:
    def test_standard_normal(self):
        s = MomentSequence.of_1d([1, 0, 1, 0, 3])
        assert distance_upper_bound(s, 1.0) == 0.5

    def test_two_dimensional(self):
        from momentflow import enumerate_multiindices

        vals = dict.fromkeys(enumerate_multiindices(2, 2), 0.0)
        vals[(0, 0)] = 1.0
        vals[(2, 0)] = 2.0
        vals[(0, 2)] = 2.0
        s = MomentSequence(2, 2, vals)
        assert distance_upper_bound(s, 1.0) == 1.0

    def test_nu_rescales(self):
        s = MomentSequence.of_1d([1, 0, 1, 0, 3])
        assert distance_upper_bound(s, 2.0) == 0.25

    def test_trivial_degree_is_infinite(self):
        assert distance_upper_bound(MomentSequence.of_1d([1.0, 0.5]), 1.0) == math.inf

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError, match="s_0 > 0"):
            distance_upper_bound(MomentSequence.of_1d([0.0, 0, 1]), 1.0)


class TestHeatDistance:
    def test_gaussian_reaches_dirac(self):
        # the crossing is tangential here (lambda_min vanishes to second
        # order), so the bisection resolves the distance only to ~sqrt(eps)
        s = MomentSequence.of_1d([1, 0, 1, 0, 3])
        rep = heat_distance_1d(s, 1.0)
        assert rep.distance == pytest.approx(0.5, abs=1e-7)
        assert rep.upper_bound == 0.5
        assert rep.interval_closed
        for got, want in zip(rep.boundary_sequence.as_1d_tuple(), (1, 0, 0, 0, 0)):
            assert got == pytest.approx(want, abs=1e-7)
        # 0 is a root of the kernel polynomial (the boundary measure is delta_0)
        assert abs(rep.kernel_poly[0]) <= 1e-7

    def test_two_atom_worked_instance(self):
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        rep = heat_distance_1d(s, 1.0)
        assert rep.distance == pytest.approx(1.0, abs=1e-9)
        assert rep.upper_bound == 1.5
        assert rep.interval_closed
        for got, want in zip(rep.boundary_sequence.as_1d_tuple(), (1, 0, 1, 0, 1)):
            assert got == pytest.approx(want, abs=1e-9)
        assert np.allclose(rep.kernel_poly, [-1, 0, 1], atol=1e-8)

    def test_boundary_input_rejected(self):
        s = MomentSequence.of_1d([1, 0, 1, 0, 1])  # already singular
        with pytest.raises(NotInteriorError, match="not interior"):
            heat_distance_1d(s, 1.0)

    def test_open_interval_detected(self):
        # forward evolution of the non-moment PSD point (1,0,0,0,1): backward
        # flow returns to it, where the top moment has unit slack
        s0 = MomentSequence.of_1d([1, 0, 0, 0, 1])
        s = evaluate_flow(heat_flow(s0, 1.0), 1.0)
        rep = heat_distance_1d(s, 1.0)
        assert rep.distance == pytest.approx(1.0, abs=1e-9)
        assert not rep.interval_closed
        assert rep.boundary_sequence[(4,)] == pytest.approx(1.0, abs=1e-8)

    def test_trivial_cases(self):
        rep = heat_distance_1d(MomentSequence.of_1d([2.0]), 1.0)
        assert rep.distance == math.inf
        zero = MomentSequence.of_1d([0, 0, 0, 0, 0])
        assert heat_distance_1d(zero, 1.0).distance == math.inf

    def test_odd_degree_truncated_and_flagged(self):
        s = MomentSequence.of_1d([1, 0, 3, 0, 25, 0])
        with pytest.warns(UserWarning, match="odd top degree"):
            rep = heat_distance_1d(s, 1.0)
        assert rep.truncated_odd
        assert rep.distance == pytest.approx(1.0, abs=1e-9)

    def test_nu_rescaling(self):
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        rep = heat_distance_1d(s, 2.0)
        assert rep.distance == pytest.approx(0.5, abs=1e-9)

    def test_first_crossing_property(self):
        # lambda_min and det stay positive strictly inside (0, distance)
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        rep = heat_distance_1d(s, 1.0)
        F = heat_flow(s, 1.0)
        for t in np.linspace(0, rep.distance, 66)[1:-1]:
            H = build_hankel(evaluate_flow(F, -t), 2).entries
            assert np.linalg.eigvalsh(H)[0] > 0
            assert np.linalg.det(H) > 0

    def test_bracketing_failure_reports_diagnostics(self, monkeypatch):
        # defensive path: force a lambda_min that never crosses zero
        from momentflow import boundary as boundary_mod
        from momentflow.boundary import BracketingError

        monkeypatch.setattr(boundary_mod, "_lambda_min", lambda C, t: 1.0)
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        with pytest.raises(BracketingError, match="root bracketing failed") as info:
            heat_distance_1d(s, 1.0)
        assert "lambda_min(0) = " in str(info.value)
        assert "lambda_min(1.5) = 1.000e+00" in str(info.value)

    def test_worked_instance_to_rounding(self):
        rep = heat_distance_1d(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        assert abs(rep.distance - 1.0) <= 1e-14

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_invalid_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            heat_distance_1d(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0, tol=tol)

    @pytest.mark.parametrize("vals", [[1, 0, 3, 0, 25], [1, 0, 1, 0, 3]])
    def test_tiny_tol_stops_on_adjacent_floats(self, vals, monkeypatch):
        # the bracket cannot shrink below adjacent floats; the loop must end
        # there, well before the hard probe cap
        from momentflow import boundary as boundary_mod

        probes = []

        def counted(C, t):
            probes.append(t)
            return _lambda_min(C, t)

        monkeypatch.setattr(boundary_mod, "_lambda_min", counted)
        rep = heat_distance_1d(MomentSequence.of_1d(vals), 1.0, tol=5e-324)
        assert 0.0 < rep.distance <= rep.upper_bound
        assert len(probes) < boundary_mod.MAX_PROBES

    def test_forward_invariance_after_boundary(self):
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        rep = heat_distance_1d(s, 1.0)
        F = heat_flow(s, 1.0)
        for t in np.linspace(-rep.distance + 1e-6, 2.0, 40):
            status = classify_psd(build_hankel(evaluate_flow(F, t), 2)).status
            assert status != INDEFINITE


def _closed_form_backward_hankel(vals, nu, t):
    """Hankel matrix of s(-t) from s_m(-t) = sum_j m!/((m-2j)! j!) s_{m-2j} (-nu t)^j."""
    def moment(m):
        return math.fsum(
            math.factorial(m) / (math.factorial(m - 2 * j) * math.factorial(j))
            * vals[m - 2 * j] * (-nu * t) ** j
            for j in range(m // 2 + 1)
        )

    order = (len(vals) - 1) // 2
    return np.array([[moment(i + j) for j in range(order + 1)] for i in range(order + 1)])


class TestHankelMatrixPolynomial:
    def test_probe_matches_closed_form_hankel(self):
        rng = np.random.default_rng(59)
        done = 0
        while done < 20:
            k = int(rng.integers(1, 5))
            mu = AtomicMeasure(
                1,
                tuple(((rng.uniform(-2, 2),), rng.uniform(0.2, 1)) for _ in range(k)),
            )
            nu = rng.uniform(0.5, 2.0)
            s = evaluate_flow(heat_flow(oracle_moments_atomic(mu, 2 * k), nu), 1.0)
            try:
                rep = heat_distance_1d(s, nu)
            except NotInteriorError:
                continue
            C = backward_hankel_coefficients(heat_flow_1d_closed(s, nu), k)
            for t in rng.uniform(0, rep.distance, size=5):
                H = _closed_form_backward_hankel(s.as_1d_tuple(), nu, t)
                w = np.linalg.eigvalsh(H)
                scale = float(np.max(np.abs(w)))
                assert abs(_lambda_min(C, t) - w[0]) <= 1e-12 * scale
            done += 1


class TestBoundaryProject:
    def test_worked_instance(self):
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        b, dist = boundary_project(s, 1.0)
        assert dist == pytest.approx(1.0, abs=1e-9)
        for got, want in zip(b.as_1d_tuple(), (1, 0, 1, 0, 1)):
            assert got == pytest.approx(want, abs=1e-9)

    def test_forward_evolution_is_inverse(self):
        assert evaluate_flow(
            heat_flow(MomentSequence.of_1d([1, 0, 1, 0, 1]), 1.0), 1.0
        ).as_1d_tuple() == (1.0, 0.0, 3.0, 0.0, 25.0)

    def test_gaussian_instance(self):
        b, dist = boundary_project(MomentSequence.of_1d([1, 0, 1, 0, 3]), 1.0)
        assert dist == pytest.approx(0.5, abs=1e-7)
        for got, want in zip(b.as_1d_tuple(), (1, 0, 0, 0, 0)):
            assert got == pytest.approx(want, abs=1e-7)

    def test_round_trip_random(self):
        rng = np.random.default_rng(37)
        done = 0
        while done < 12:
            k = int(rng.integers(1, 4))
            mu = AtomicMeasure(
                1,
                tuple(((rng.uniform(-2, 2),), rng.uniform(0.2, 1)) for _ in range(k)),
            )
            t0 = rng.uniform(0.1, 1.5)
            s = evaluate_flow(heat_flow(oracle_moments_atomic(mu, 6), 1.0), t0)
            try:
                b, dist = boundary_project(s, 1.0)
            except NotInteriorError:
                continue
            back = evaluate_flow(heat_flow(b, 1.0), dist)
            for alpha in s.indices():
                assert back[alpha] == pytest.approx(
                    s[alpha], rel=1e-9, abs=1e-9
                )
            assert dist <= distance_upper_bound(s, 1.0) + 1e-12
            done += 1
