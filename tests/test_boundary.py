"""Tests for the heat distance and boundary projection."""

import math
import re

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
    recover_gaussian_mixture,
)
from momentflow.boundary import (
    OddDegreeWarning,
    _first_crossing,
    _loop_probe,
    _pivot_probe,
    _probe_kernel,
)
from momentflow.flows import _heat_table_1d, heat_flow_1d_closed
from momentflow.hankel import INDEFINITE

from helpers import fresh_kernels, random_sequence


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
        # the crossing is tangential here (sigma_22 vanishes to second
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

    def test_report_carries_the_boundary_atoms(self):
        rep = heat_distance_1d(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        assert np.allclose(rep.boundary_atoms, [(-1.0, 0.5), (1.0, 0.5)], atol=1e-12)
        for x, _ in rep.boundary_atoms:
            assert abs(np.polyval(rep.kernel_poly[::-1], x)) <= 1e-12
        assert heat_distance_1d(MomentSequence.of_1d([2.0]), 1.0).boundary_atoms is None

    def test_degenerate_boundary_has_fewer_atoms(self):
        # the centered Gaussian reaches delta_0: a rank-1 boundary at order 2,
        # whose kernel polynomial is the lowest-degree one, f(x) = x
        rep = heat_distance_1d(MomentSequence.of_1d([1, 0, 1, 0, 3]), 1.0)
        assert len(rep.boundary_atoms) == 1
        assert rep.boundary_atoms[0] == pytest.approx((0.0, 1.0), abs=1e-7)
        assert rep.kernel_poly == pytest.approx((0.0, 1.0, 0.0), abs=1e-7)

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
        with pytest.warns(OddDegreeWarning, match="odd top degree"):
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
        # defensive path: force a probe that never crosses zero
        from momentflow import boundary as boundary_mod
        from momentflow.boundary import BracketingError

        monkeypatch.setattr(boundary_mod, "_pivot_probe", lambda coef, order, t: 1.0)
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        with pytest.raises(BracketingError, match="root bracketing failed") as info:
            heat_distance_1d(s, 1.0)
        assert "beta_m(0) = " in str(info.value)
        assert "beta_m(1.5) = 1.000e+00" in str(info.value)

    def test_worked_instance_to_rounding(self):
        # exactly 1: golden distance.json and every CLI distance run rely on it
        rep = heat_distance_1d(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        assert rep.distance == 1.0
        assert rep.kernel_poly == (-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "vals", [[1, 0, 3, 0, 25], [1.0, 0.5], [0, 0, 0], [1, 0, 1]]
    )
    def test_invalid_nu_rejected(self, vals, nu):
        # trivial inputs (degree < 2, the zero sequence) are checked too
        with pytest.raises(ValueError, match="nu must be finite and > 0"):
            heat_distance_1d(MomentSequence.of_1d(vals), nu)

    def test_overflowing_bound_raises(self):
        # s_2 / (2 s_0 nu) overflows for a subnormal nu: the distance is not a
        # float, and no report with an infinite distance may claim a boundary
        with pytest.raises(OverflowError, match="distance bound"):
            heat_distance_1d(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1e-320)

    def test_boundary_sequence_is_the_closed_flow_at_minus_distance(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 20:
            k = int(rng.integers(1, 5))
            mu = AtomicMeasure(
                1,
                tuple(((rng.uniform(-2, 2),), rng.uniform(0.2, 1)) for _ in range(k)),
            )
            nu = rng.uniform(0.5, 2.0)
            s = evaluate_flow(heat_flow(oracle_moments_atomic(mu, 2 * k), nu), 0.7)
            try:
                rep = heat_distance_1d(s, nu)
            except NotInteriorError:
                continue
            want = evaluate_flow(heat_flow_1d_closed(s, nu), -rep.distance)
            got = rep.boundary_sequence.as_1d_tuple()
            assert list(map(float.hex, got)) == list(map(float.hex, want.as_1d_tuple()))
            done += 1

    def test_builds_no_flow(self, monkeypatch):
        # the search and the boundary read the coefficient table directly
        from momentflow import exppoly

        def refuse(*args, **kwargs):
            raise AssertionError("the 1-D pipeline built an exppoly plan")

        monkeypatch.setattr(exppoly, "compile_all", refuse)
        monkeypatch.setattr(exppoly, "canonicalize", refuse)
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        assert heat_distance_1d(s, 1.0).distance == 1.0
        assert recover_gaussian_mixture(s, nu=1.0).delta == pytest.approx(1.0)

    @pytest.mark.parametrize("vals", [
        [1, 0, 3, 0, 25],
        # the heat table's s_0 t**3 coefficient 120 s_0 overflows, which made
        # the boundary moment 6 -inf
        [3e306, -5e305, 1.2e305, -3e304, 8.5e303, -2.6e303, 8.8e302],
    ])
    def test_boundary_sequence_is_finite_or_an_error(self, vals):
        try:
            rep = heat_distance_1d(MomentSequence.of_1d(vals), 1.0)
        except (ValueError, OverflowError):
            return
        assert all(map(math.isfinite, rep.boundary_sequence.values.values()))

    @pytest.mark.parametrize("search", [heat_distance_1d, recover_gaussian_mixture])
    def test_overflowing_heat_table_names_the_coefficient(self, search):
        # 120 s_0 nu**3 overflows although nu**3 does not
        s = MomentSequence.of_1d([3e306, -5e305, 1.2e305, -3e304, 8.5e303,
                                  -2.6e303, 8.8e302])
        with pytest.raises(OverflowError, match=re.escape(
            "the heat table overflows at nu = 1.0: coefficient (6, 3) of t**3 "
            "in s_6 is not finite"
        )):
            search(s, 1.0)

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

        def counted(coef, order, t):
            probes.append(t)
            return _pivot_probe(coef, order, t)

        monkeypatch.setattr(boundary_mod, "_pivot_probe", counted)
        rep = heat_distance_1d(MomentSequence.of_1d(vals), 1.0, tol=5e-324)
        assert 0.0 < rep.distance <= rep.upper_bound
        assert len(probes) < boundary_mod.MAX_PROBES

    def test_exactly_zero_probe_is_a_crossing_end(self):
        # a probe that is exactly 0 (a pivot vanishing at a float) becomes the
        # bracket end; the Anderson-Bjorck factor must not divide by it
        probes = []

        def probe(t):
            probes.append(t)
            return max(0.0, 0.4 - t)  # 0 on [0.4, ub], so hits 0 exactly

        got = _first_crossing(probe, 1.5, probe(0.0), 1e-12)
        assert 0.4 <= got <= 0.4 + 1e-12
        assert len(probes) < 100

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
            # s_m(-t): the odd powers of t change sign
            coef = [
                [-c if j % 2 else c for j, c in enumerate(row)]
                for row in _heat_table_1d(s, nu)
            ]
            for t in rng.uniform(0, rep.distance, size=5):
                # LDL^T pivots are the squared diagonal of the Cholesky factor
                H = _closed_form_backward_hankel(s.as_1d_tuple(), nu, t)
                piv = np.diag(np.linalg.cholesky(H)) ** 2
                want = piv[-1] / piv[-2]
                # sigma_mm cancels down from terms of the size of H[m, m]
                scale = H[-1, -1] / piv[-2]
                assert abs(_pivot_probe(coef, k, t) - want) <= 1e-12 * scale
            done += 1


class TestProbeKernel:
    def test_kernel_matches_loops_bit_for_bit(self):
        # seeded interior sequences over a t grid on [0, upper_bound], refined
        # around the crossing, where the top pivot turns <= 0 and then a lower
        # one does (the -inf branch)
        for t in (0.0, 0.7, math.inf):  # order 0: the probe is s_0 itself
            assert _probe_kernel(0)([[2.5]], t).hex() == _loop_probe([[2.5]], 0, t).hex()
        branches = set()
        for order in [*range(1, 13), 31]:
            rng = np.random.default_rng(1000 + order)
            for _ in range(3):
                xs = np.linspace(-1, 1, order) + rng.uniform(-0.05, 0.05, order)
                ws = rng.uniform(0.2, 1.0, order)
                mu = AtomicMeasure(1, tuple(((float(x),), float(w)) for x, w in zip(xs, ws)))
                nu = float(rng.uniform(0.5, 2.0))
                s = evaluate_flow(heat_flow(oracle_moments_atomic(mu, 2 * order), nu),
                                  float(rng.uniform(0.1, 1.0)))
                coef = [[(-c if j % 2 else c) if c else 0.0 for j, c in enumerate(r)]
                        for r in _heat_table_1d(s, nu)]
                ub = distance_upper_bound(s, nu)
                d = _first_crossing(lambda t: _loop_probe(coef, order, t), ub,
                                    _loop_probe(coef, order, 0.0), 1e-15)
                grid = [ub * i / 60 for i in range(61)]
                grid += [d * (1.0 + k * 1e-12) for k in range(-20, 21)]
                grid += [-ub, math.inf]  # off the search interval the bits agree too
                for t in grid:
                    got, want = _probe_kernel(order)(coef, t), _loop_probe(coef, order, t)
                    assert got.hex() == want.hex(), (order, t)
                    if 0.0 <= t <= ub:
                        branches.add("lower" if want == -math.inf else
                                     "top" if want <= 0.0 else "positive")
        assert branches == {"positive", "top", "lower"}

    def test_each_order_compiles_once(self, monkeypatch):
        # on the second distance of the order: a one-off distance probes with
        # the loops, as compiling costs more than the probes of one distance save
        from momentflow import boundary as boundary_mod

        built = []
        source = boundary_mod._probe_source

        def counted(order):
            built.append(order)
            return source(order)

        monkeypatch.setattr(boundary_mod, "_probe_source", counted)
        reports = []
        with fresh_kernels() as kernels:
            for vals, want in (([1, 0, 3, 0, 25], []), ([1, 0, 1, 0, 3], [2]),
                               ([1, 0, 3, 0, 25, 0, 400], [2]), ([1, 0, 3, 0, 25], [2]),
                               ([1, 0, 3, 0, 25, 0, 400], [2, 3]),
                               ([1, 0, 1, 0, 3], [2, 3])):
                reports.append(heat_distance_1d(MomentSequence.of_1d(vals), 1.0))
                assert built == want
            assert boundary_mod._probe_kernel(2) is boundary_mod._probe_kernel(2)
            assert built == [2, 3]
            assert sorted(kernels) == [("probe", (2,)), ("probe", (3,))]
        # loops (first distance of an order) and kernel (later ones) agree bit for bit
        assert repr(reports[0]) == repr(reports[3])
        assert repr(reports[2]) == repr(reports[4])
        assert repr(reports[1]) == repr(reports[5])


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
