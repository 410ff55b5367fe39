"""Tests for the heat distance and boundary projection."""

import importlib.util
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from momentflow import (
    AtomicMeasure,
    MomentSequence,
    NotInteriorError,
    RecoveryError,
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
from momentflow import boundary as boundary_mod
from momentflow import hankel as hankel_mod
from momentflow import kernels as kernels_mod
from momentflow.boundary import (
    BracketingError,
    OddDegreeWarning,
    _first_crossing,
    _loop_rule,
    _loop_search,
    _pivot_probe,
)
from momentflow.core import DEFAULT_DISTANCE_TOL, compiled_kernel
from momentflow.flows import _heat_table_1d, heat_flow_1d_closed
from momentflow.hankel import INDEFINITE

from helpers import fresh_kernels, hexed, kernel_against_loop, outcome, random_sequence
from oracles import mixture_moments


# An interior 7-atom mixture of mass 1e-200, atoms 1e25 apart, at t0 = 1e49
# (nu = 1).  Its boundary moments are finite, but the power D**7 of its heat
# distance D = 1e49 is not, so the boundary sums of the moments as given overflow.
SEVEN_ATOMS = [float(m) for m in mixture_moments([(i - 3) * 1e25 for i in range(7)],
                                                 [1e-200 / 7] * 7, 2e49, 14)]


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bits_and_messages(self, n):
        # the bound is fsum of the s_{2 e_i}, over 2 n s_0 nu; a refusal names
        # the first negative s_{2 e_i}, or nu and s_0
        from momentflow import enumerate_multiindices

        zero, rng = (0,) * n, np.random.default_rng(90 + n)
        axes = [tuple(2 * (i == j) for i in range(n)) for j in range(n)]

        def sequence(s0, diagonal):
            vals = {a: float(rng.uniform(-1.0, 1.0)) for a in enumerate_multiindices(n, 4)}
            return MomentSequence(n, 4, {**vals, zero: s0, **dict(zip(axes, diagonal))})

        for _ in range(20):
            diagonal = rng.uniform(0.0, 3.0, size=n).tolist()
            s0, nu = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 3.0))
            want = math.fsum(diagonal) / (2.0 * n * s0 * nu)
            assert distance_upper_bound(sequence(s0, diagonal), nu).hex() == want.hex()
        with pytest.raises(NotInteriorError) as err:
            distance_upper_bound(sequence(1.0, [-0.5 - j for j in range(n)]), 1.0)
        assert str(err.value) == f"not interior: moment s_{axes[0]} is -0.5, not >= 0"
        for s0, nu, part in [(1e-300, 1e-30, "bound"), (1.0, 1e-320, "bound"),
                             (1e300, 1e10, "bound's denominator 2 n s_0 nu")]:
            with pytest.raises(OverflowError) as err:
                distance_upper_bound(sequence(s0, [1.0] * n), nu)
            assert str(err.value) == (
                f"the distance {part} overflows at nu = {nu!r}, s_0 = {s0!r}")


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

    @pytest.mark.parametrize("vals, t, atoms", [
        ([1, 0, 0, 0, 0, 0, 1], 0.3, 1),  # rank 1, and s_6 has unit slack
        ([1, 0, 1, 0, 1, 0, 2], 0.7, 2),  # rank 2, atoms at -1 and 1
    ])
    def test_degenerate_open_boundary_on_both_paths(self, vals, t, atoms):
        # a rank below the order runs the membership test: the rule kernel
        # hands the boundary back to the loops, after the search kernel
        s = evaluate_flow(heat_flow(MomentSequence.of_1d(vals), 1.0), t)
        with fresh_kernels() as kernels:
            reports = [heat_distance_1d(s, 1.0) for _ in range(3)]  # loops, then kernels
            assert {("search", (3,)), ("rule", (3,))} <= set(kernels)
        for rep in reports:
            assert rep.distance == pytest.approx(t, abs=1e-9)
            assert not rep.interval_closed
            assert len(rep.boundary_atoms) == atoms
        assert len(set(map(repr, reports))) == 1

    @pytest.mark.parametrize("tol", [1e-3, 1e-2, 1e-1])
    @pytest.mark.parametrize("vals, t, atoms, closed", [
        ([1, 0, 3, 0, 25], 0.0, [-1.0, 1.0], True),  # distance 1, a full rank
        ([1, 0, 1, 0, 1, 0, 2], 0.7, [-1.0, 1.0], False),  # rank 2 of order 3
        ([1, 0, 0, 0, 0, 0, 1], 0.3, [0.0], False),  # rank 1 of order 3
        ([1, 0, 0, 0, 1], 0.4, [0.0], False),  # rank 1 of order 2
    ])
    def test_a_coarse_search_tolerance_keeps_the_rank(self, vals, t, atoms, closed, tol):
        # the search tolerance moves the crossing, not the rank threshold: a
        # beta_k of order 1 is never cut, and a degenerate boundary is still
        # found where a lower pivot has reached 0
        s = MomentSequence.of_1d(vals)
        if t:
            s = evaluate_flow(heat_flow(s, 1.0), t)
        with fresh_kernels() as kernels:
            reports = [heat_distance_1d(s, 1.0, tol) for _ in range(3)]  # loops, then kernels
            assert ("rule", (len(vals) // 2,)) in kernels
        assert len(set(map(repr, reports))) == 1
        rep = reports[0]
        assert [x for x, _ in rep.boundary_atoms] == pytest.approx(atoms, abs=tol)
        assert rep.interval_closed == closed

    def test_full_rank_boundary_is_closed(self, monkeypatch):
        # only the top pivot of a full-rank boundary vanishes: it is a flat
        # extension, which its order atoms represent, so it is a moment sequence
        inputs = _recover_workload([1, 2, 3])
        for policy in (lambda *args: None, compiled_kernel):  # loops, then kernels
            with fresh_kernels(), monkeypatch.context() as patch:
                patch.setattr(boundary_mod, "sighted_kernel", policy)
                reports = [heat_distance_1d(s, 1.0) for s in inputs]
            full = [rep for s, rep in zip(inputs, reports)
                    if len(rep.boundary_atoms) == s.degree // 2]
            assert len(full) > len(inputs) // 2
            assert all(rep.interval_closed for rep in full)

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
        # defensive path: force a probe that never crosses zero; the loops
        # probe through _pivot_probe only while no search kernel is compiled
        monkeypatch.setattr(boundary_mod, "_pivot_probe", lambda coef, order, t: 1.0)
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        with fresh_kernels(), pytest.raises(BracketingError,
                                            match="root bracketing failed") as info:
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
        # at nu = 2**e the clock u = nu t scales every term exactly, so the
        # boundary is the closed flow at nu summed at -distance, to the bit; at
        # the random nu the search's clock identity holds to the bit instead
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
                _assert_clock(s, nu, DEFAULT_DISTANCE_TOL)
            except NotInteriorError:
                continue
            nu = 2.0 ** int(rng.integers(-60, 61))
            rep = heat_distance_1d(s, nu)
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
        # 120 s_0 overflows in the table of the moments as given, which raised
        # "coefficient (6, 3) ... is not finite" (the table guard stays; see
        # test_a_factor_beyond_the_float_range_is_inf).  The search runs on
        # the standardized moments, so this input reads the distance of the
        # same input times 2**-1000, bit for bit, and the recovery passes
        vals = [3e306, -5e305, 1.2e305, -3e304, 8.5e303, -2.6e303, 8.8e302]
        s = MomentSequence.of_1d(vals)
        small = MomentSequence.of_1d([math.ldexp(v, -1000) for v in vals])
        unit = heat_distance_1d(small, 1.0).distance
        assert unit.hex() == (0.0026396945208352076).hex()
        with fresh_kernels():  # on the loops, then on the kernels
            for _ in range(2):
                for nu in (1.0, 1e-300):
                    got = search(s, nu)
                    width = got.distance if search is heat_distance_1d else got.delta
                    if nu == 1.0:
                        assert width.hex() == unit.hex()
                    else:  # to the bracket width 1e-10 in u = nu t
                        assert abs(width * nu - unit) <= 1e-10

    @pytest.mark.parametrize("search", [heat_distance_1d, recover_gaussian_mixture])
    def test_overflowing_power_of_the_distance_names_it(self, search):
        # D**7 at D = 1e49 overflowed in the boundary sums of the moments as
        # given, and raised a message naming D and the term (14, 7).  On the
        # standardized moments D < 2, so the distance is read; the polish
        # still runs on the moments as given and fails its residual gate loudly
        s = MomentSequence.of_1d(SEVEN_ATOMS)
        with fresh_kernels():  # on the loops, then on the kernels
            for _ in range(2):
                if search is heat_distance_1d:
                    assert search(s, 1.0).distance == 1.0000000000000668e+49
                else:
                    with pytest.raises(RecoveryError, match="recovery failed: residual"):
                        search(s, 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_invalid_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            heat_distance_1d(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0, tol=tol)

    @pytest.mark.parametrize("vals", [[1, 0, 3, 0, 25], [1, 0, 1, 0, 3]])
    def test_tiny_tol_stops_on_adjacent_floats(self, vals, monkeypatch):
        # the bracket cannot shrink below adjacent floats; the loop must end
        # there, well before the hard probe cap.  The loops run (and probe
        # through _pivot_probe) only while no search kernel is compiled
        probes = []

        def counted(coef, order, t):
            probes.append(t)
            return _pivot_probe(coef, order, t)

        monkeypatch.setattr(boundary_mod, "_pivot_probe", counted)
        with fresh_kernels():
            rep = heat_distance_1d(MomentSequence.of_1d(vals), 1.0, tol=5e-324)
        assert 0.0 < rep.distance <= rep.upper_bound
        assert 0 < len(probes) < boundary_mod.MAX_PROBES

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
                for row in _heat_table_1d(s.as_1d_tuple(), nu)
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


def _search_kernel(order):
    return compiled_kernel("search", (order,))


def _search_agrees(s, tol):
    """The search kernel against the loops; returns the loops' outcome.

    Where the loops return, the kernel returns the same crossing ``u`` and
    boundary values, as ``float.hex``, without them; where they raise, it
    raises their error, by handing back to them or from the bound or the
    regula falsi that both call.  It hands back only where the loops raise.
    """
    order, vals = s.degree // 2, s.as_1d_tuple()
    got, entered = kernel_against_loop(boundary_mod, "_loop_search", _search_kernel(order),
                                       vals, order, tol)
    want = outcome(_loop_search, vals, order, tol)
    assert not entered or isinstance(want, str), (s, want)
    assert got == want
    return want


def _distance_both_ways(vals, nu=1.0, tol=DEFAULT_DISTANCE_TOL):
    """``heat_distance_1d``'s result or error as a repr, with the search kernel
    of the order compiled beforehand and with the loops."""
    s = MomentSequence.of_1d(vals)
    out = []
    for compiled in (True, False):
        with fresh_kernels():
            if compiled:
                _search_kernel(s.degree // 2)
            try:
                out.append(repr(heat_distance_1d(s, nu, tol)))
            except Exception as exc:
                out.append(repr(exc))
    return out


def _recover_workload(seeds):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [MomentSequence.of_1d(op["input"]["s"])
            for seed in seeds for op in workloads.gen_recover(seed, 70)]


class TestSearchKernel:
    def test_kernel_matches_loops_bit_for_bit(self, monkeypatch):
        # seeded interior sequences, each searched at a coarse, the default
        # and the finest tolerance; the loops' probes take all three branches:
        # positive, the top pivot <= 0, and a lower pivot <= 0 (-inf)
        branches = set()

        def classified(coef, order, t):
            f = _pivot_probe(coef, order, t)
            branches.add("lower" if f == -math.inf else "top" if f <= 0.0 else "positive")
            return f

        with fresh_kernels(), monkeypatch.context() as patch:
            patch.setattr(boundary_mod, "_pivot_probe", classified)
            for order in [*range(1, 13), 31]:
                rng = np.random.default_rng(1000 + order)
                for _ in range(3):
                    xs = np.linspace(-1, 1, order) + rng.uniform(-0.05, 0.05, order)
                    ws = rng.uniform(0.2, 1.0, order)
                    mu = AtomicMeasure(1, tuple(((float(x),), float(w))
                                                for x, w in zip(xs, ws)))
                    nu = float(rng.uniform(0.5, 2.0))
                    s = evaluate_flow(heat_flow(oracle_moments_atomic(mu, 2 * order), nu),
                                      float(rng.uniform(0.1, 1.0)))
                    for tol in (1e-3, DEFAULT_DISTANCE_TOL, 5e-324):
                        _search_agrees(s, tol)
        assert branches == {"positive", "top", "lower"}

    def test_workload_searches_match_loops_bit_for_bit(self):
        # the benchmark's recover-1d generator, seeds 0-2: every crossing and
        # boundary value (each of these inputs is interior)
        with fresh_kernels():
            for s in _recover_workload(range(3)):
                assert isinstance(_search_agrees(s, DEFAULT_DISTANCE_TOL), list)

    @pytest.mark.parametrize("vals, tol", [
        ([1, -0.0, 3, -0.0, 25], DEFAULT_DISTANCE_TOL),
        ([1, 0, 3, 0, 25], 1e300),  # no probe inside: the distance is the bound
        ([1, 0, 3, 0, 25], 5e-324),  # the bracket ends on adjacent floats
        ([3e306, 0, 3e306, 0, 9e306], DEFAULT_DISTANCE_TOL),
        ([1e-300 * v for v in (1, 0, 3, 0, 25)], DEFAULT_DISTANCE_TOL),
    ])
    def test_edge_inputs_match_loops(self, vals, tol):
        with fresh_kernels():
            u, _ = _search_agrees(MomentSequence.of_1d(vals), tol)
        if tol == 1e300:  # the bound s_2 / (2 s_0) at nu = 1
            assert u == (1.5).hex()
        kernel, loops = _distance_both_ways(vals, tol=tol)
        assert kernel == loops

    @pytest.mark.parametrize("vals, nu, error, message", [
        ([1, 0, 1, 0, 1], 1.0, NotInteriorError, "not interior"),
        # on the moments as given, 12 s_0 overflows in the table, which the
        # kernel reads as a failed interior test
        ([1.6e307, 0, 1e300, 0, 1e308], 1e300, OverflowError,
         "the heat table overflows: coefficient (4, 2) of t**2 in s_4 is not finite"),
        # on the moments as given, D**7 overflows at D = 1e49 in the boundary
        # sums, in the loops and in the kernel alike, which does not hand back
        (SEVEN_ATOMS, 1.0, OverflowError, "Numerical result out of range"),
        # on the moments as given, the bound underflows to 5e-321, where the
        # probe is still positive
        ([1e300, 0, 1e-20, 0, 1e-200], 1.0, BracketingError, "root bracketing failed"),
    ])
    def test_hand_back_raises_the_loops_error(self, vals, nu, error, message):
        s = MomentSequence.of_1d(vals)
        order = s.degree // 2
        with fresh_kernels():
            # the search takes the bracket width in u = nu t, as _search_and_rule passes it
            assert _search_agrees(s, DEFAULT_DISTANCE_TOL * nu).startswith(error.__name__)
            with pytest.raises(error, match=re.escape(message)):
                _search_kernel(order)(vals, order, DEFAULT_DISTANCE_TOL * nu)
        kernel, loops = _distance_both_ways(vals, nu)
        assert kernel == loops
        # heat_distance_1d searches the standardized moments, where only the
        # interior test still fails: the others read a distance (at nu = 1e300
        # the report's bound is read at that scale too, where 2 s_0 nu
        # overflowed at the caller's; the crossing is on the bound 3.125e-308,
        # which the search probes once more at 1 + 2**-50 times its rounding)
        public = {NotInteriorError: "NotInteriorError('not interior: Hankel pivot 2",
                  OverflowError: "BoundaryReport(distance=3.1250000000000026e-308,",
                  BracketingError: "BoundaryReport(distance=5e-321,"}
        if vals is SEVEN_ATOMS:
            assert kernel.startswith("BoundaryReport(distance=1.0000000000000668e+49,")
        else:
            assert kernel.startswith(public[error]), kernel

    @pytest.mark.parametrize("vals, error, message", [
        ([1e300, 0, 1e-20, 0, 1e-200], BracketingError, "root bracketing failed"),
    ])
    def test_the_bound_and_the_crossing_raise_without_a_hand_back(self, vals, error, message):
        # past the interior test the kernel calls the loops' bound and regula
        # falsi, which raise the loops' error themselves.  At nu = 1, where the
        # search reads it, the bound of an interior input is a float; the bound
        # at the caller's nu raises in _search_and_rule (TestClock)
        with fresh_kernels():
            got, entered = kernel_against_loop(boundary_mod, "_loop_search", _search_kernel(2),
                                               vals, 2, DEFAULT_DISTANCE_TOL)
        assert not entered
        assert got == outcome(_loop_search, vals, 2, DEFAULT_DISTANCE_TOL)
        assert got.startswith(error.__name__) and message in got

    def test_a_factor_beyond_the_float_range_is_inf(self):
        # from moment 266 (Hankel order 133) on, m! / ((m-2j)! j!) exceeds the
        # float range: the table names the coefficient (converting the int
        # factor raised a bare OverflowError), and the kernel writes the
        # factor as math.inf, so that its products cannot raise either
        s = MomentSequence.of_1d([1.0] + [0.0] * 266)
        with pytest.raises(OverflowError, match=re.escape(
                "the heat table overflows: coefficient (266, 125) of t**125 in s_266 "
                "is not finite")):
            _heat_table_1d(s.as_1d_tuple(), 1.0)
        assert "    c266_125 = 0.0 - math.inf * s16\n" in kernels_mod._search_source(133)

    def test_the_source_hands_back_in_one_place(self):
        # the interior test, which a heat table entry that is not finite also
        # fails; the boundary sums of a standardized sequence cannot overflow
        # (bound < 2), and where they raise on other moments the loops raise
        # the same.  nu is the caller's clock and never enters the source, and
        # the bound is s_2 / (2 s_0), not the public distance_upper_bound
        for order in range(1, 9):
            source = kernels_mod._search_source(order)
            assert source.count("return _loop_search(s, order, tol)") == 1, order
            assert source.count("_loop_search") == 1, order
            assert "    ub = s2 / (2.0 * s0)\n" in source, order
            assert "distance_upper_bound" not in source and "except" not in source, order
            assert re.search(r"\bnu\b", source) is None, order

    def test_each_order_compiles_once(self, monkeypatch):
        # on the second distance of the order: a one-off distance runs the
        # loops, as compiling costs more than one distance saves
        built = []
        namespace, source = kernels_mod.KINDS["search"]

        def counted(order):
            built.append(order)
            return source(order)

        monkeypatch.setitem(kernels_mod.KINDS, "search", (namespace, counted))
        reports = []
        with fresh_kernels() as kernels:
            for vals, want in (([1, 0, 3, 0, 25], []), ([1, 0, 1, 0, 3], [2]),
                               ([1, 0, 3, 0, 25, 0, 400], [2]), ([1, 0, 3, 0, 25], [2]),
                               ([1, 0, 3, 0, 25, 0, 400], [2, 3]),
                               ([1, 0, 1, 0, 3], [2, 3])):
                reports.append(heat_distance_1d(MomentSequence.of_1d(vals), 1.0))
                assert built == want
            assert _search_kernel(2) is _search_kernel(2)
            assert built == [2, 3]
            assert sorted(key for key in kernels if key[0] == "search") == [
                ("search", (2,)), ("search", (3,))]
        # loops (first distance of an order) and kernel (later ones) agree bit for bit
        assert repr(reports[0]) == repr(reports[3])
        assert repr(reports[2]) == repr(reports[4])
        assert repr(reports[1]) == repr(reports[5])


def _probe_times(search, s, monkeypatch):
    """The times, as ``float.hex``, at which ``_first_crossing`` calls its probe
    while ``search`` finds the heat distance of ``s``; the search must not
    hand back to the loops."""
    times, crossing = [], boundary_mod._first_crossing

    def recording(probe, ub, f0, tol):
        def recorded(t):
            times.append(t.hex())
            return probe(t)
        return crossing(recorded, ub, f0, tol)

    def no_hand_back(*args):
        raise AssertionError("the search handed back to the loops")

    order = s.degree // 2
    with monkeypatch.context() as patch:
        patch.setattr(boundary_mod, "_first_crossing", recording)
        if search is not _loop_search:
            patch.setattr(boundary_mod, "_loop_search", no_hand_back)
        search(s.as_1d_tuple(), order, DEFAULT_DISTANCE_TOL)
    return times


class TestOneRegulaFalsi:
    def test_kernel_and_loops_probe_the_same_times(self, monkeypatch):
        # the benchmark's recover-1d generator, seeds 0-2: the kernel runs the
        # loops' _first_crossing on its own probe, so both probe the bound and
        # then the same times in the same order
        with fresh_kernels():
            for s in _recover_workload(range(3)):
                kernel = _probe_times(_search_kernel(s.degree // 2), s, monkeypatch)
                loops = _probe_times(_loop_search, s, monkeypatch)
                assert len(loops) >= 2 and kernel == loops

    def test_the_search_source_has_no_regula_falsi_of_its_own(self):
        for order in (1, 2, 8):
            source = kernels_mod._search_source(order)
            assert "_first_crossing(probe, ub, f0, tol)" in source
            for name in ("MAX_PROBES", "STALL_PROBES", "probes", "widths", "moved", "while"):
                assert name not in source, (order, name)


def _rule_kernel(order):
    return compiled_kernel("rule", (order,))


def _rule_agrees(vals, order):
    """The rule kernel against the loops; returns the path the kernel took.

    Its recurrence, nodes, weights and kernel polynomial equal the loops' as
    ``float.hex``, or it raises the loops' error.  It "handed back" where it
    called the loops, and otherwise returned ("kernel") or "raised" alone.
    """
    got, entered = kernel_against_loop(boundary_mod, "_loop_rule", _rule_kernel(order),
                                       vals, order)
    assert got == outcome(_loop_rule, vals, order)
    if entered:
        return "handed back"
    return "raised" if isinstance(got, str) else "kernel"


def _atomic_moments(xs, ws, width):
    return [math.fsum([w * x**m for x, w in zip(xs, ws)]) for m in range(width)]


class TestRuleKernel:
    def test_workload_rules_match_loops_bit_for_bit(self):
        # the benchmark's recover-1d generator, seeds 0-2: every boundary
        paths = set()
        with fresh_kernels():
            for s in _recover_workload(range(3)):
                order = s.degree // 2
                _, vals = _loop_search(s.as_1d_tuple(), order, DEFAULT_DISTANCE_TOL)
                paths.add(_rule_agrees(vals, order))
        assert "kernel" in paths

    def test_seeded_boundaries_match_loops_bit_for_bit(self):
        # the boundaries of TestSearchKernel's seeded measures, found at each
        # search tolerance
        paths = []
        with fresh_kernels():
            for order in [*range(1, 13), 31]:
                rng = np.random.default_rng(1000 + order)
                for _ in range(3):
                    xs = np.linspace(-1, 1, order) + rng.uniform(-0.05, 0.05, order)
                    ws = rng.uniform(0.2, 1.0, order)
                    mu = AtomicMeasure(1, tuple(((float(x),), float(w))
                                                for x, w in zip(xs, ws)))
                    nu = float(rng.uniform(0.5, 2.0))
                    s = evaluate_flow(heat_flow(oracle_moments_atomic(mu, 2 * order), nu),
                                      float(rng.uniform(0.1, 1.0)))
                    for tol in (1e-3, DEFAULT_DISTANCE_TOL, 5e-324):
                        _, vals = _loop_search(s.as_1d_tuple(), order, tol)
                        paths.append(_rule_agrees(vals, order))
        assert paths.count("kernel") > len(paths) // 2

    @pytest.mark.parametrize("vals, path", [
        ([1.0, 0.0, 1.0, 0.0, 1.0], "kernel"),  # two atoms at -1 and 1
        (_atomic_moments([1.0, 1.01, 1.02], [0.3, 0.4, 0.3], 7), "kernel"),  # clustered
        (_atomic_moments([0.01 * i for i in range(5)], [0.2] * 5, 11), "kernel"),
        (_atomic_moments([-1.0, -0.99, 1.5, 1.51], [0.3, 0.4, 0.3, 0.2], 9), "kernel"),
        (_atomic_moments([1.0, 1.0001, 1.0002], [0.3, 0.4, 0.3], 7), "handed back"),
        # Jacobi matrices with a diagonal entry of 1e14, whose QL splits below the
        # top (m < n - 1): (0, 0, 1e14; 1, 0.01) and (0, 0, 0, 1e14; 1, 1, 0.01)
        ([1.0, 0.0, 1.0, 0.0, 1.0001, 1e10, 1e24], "kernel"),
        ([1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 4.0001, 1e10, 1e24], "kernel"),
        ([1.0, 0.5, 0.25, 0.125, 0.0625], "handed back"),  # one atom: rank 1
        ([1.0, 0.0, 1.0, math.nan, 3.0], "kernel"),
        ([1.0, 0.0, 1.0, 0.0, math.nan], "kernel"),
        ([1.0, 0.0, 1.0, 0.0, math.inf], "kernel"),
        ([1e300, 0.0, 1e300, 0.0, 1e300], "kernel"),
        ([1e-300, 0.0, 1e-300, 0.0, 1e-300], "kernel"),
        ([1.0, 0.0, math.nan, 0.0, 3.0], "handed back"),
        ([1.0, 0.0, math.inf, 0.0, 3.0], "handed back"),
        ([1.0, -math.inf, 1.0, 0.0, 3.0], "handed back"),
        # the loops' level 1 subtracts beta_0 * 0.0, which is NaN here
        ([math.inf, 0.0, 1.0], "handed back"),
        ([math.inf, 0.0, math.inf, 0.0, math.inf], "handed back"),
        ([math.inf, 0.0, 1.0, 0.0, 3.0], "handed back"),
        ([math.nan, 0.0, 1.0, 0.0, 1.0], "handed back"),
        ([1.0, 0.0, -1.0, 0.0, 1.0], "handed back"),  # not positive definite
        ([-1.0, 0.0, 1.0, 0.0, 1.0], "handed back"),
        ([0.0, 0.0, 1.0, 0.0, 1.0], "handed back"),  # s_0 = 0: the loops read rank 0
    ])
    def test_edge_inputs_match_loops(self, vals, path):
        with fresh_kernels():
            assert _rule_agrees(vals, len(vals) // 2) == path

    def test_sweep_cap_hands_back_to_the_loops_error(self, monkeypatch):
        vals = _atomic_moments([-1.0, 0.2, 1.5], [0.3, 0.4, 0.3], 7)
        with fresh_kernels():
            assert _rule_agrees(vals, 3) == "kernel"
        monkeypatch.setattr(hankel_mod, "QL_MAX_SWEEPS", 1)
        with fresh_kernels():
            assert _rule_agrees(vals, 3) == "handed back"
            with pytest.raises(ArithmeticError, match="implicit QL did not converge"):
                _rule_kernel(3)(vals, 3)
        with pytest.raises(ArithmeticError, match="implicit QL did not converge"):
            _loop_rule(vals, 3)

    def test_source_grows_with_the_square_of_the_order(self):
        size = {order: len(kernels_mod._rule_source(order)) for order in (8, 16, 31)}
        assert size[16] < 4.5 * size[8]
        assert size[31] < 500_000

    def test_each_order_compiles_on_its_second_distance(self, monkeypatch):
        built = []
        namespace, source = kernels_mod.KINDS["rule"]
        monkeypatch.setitem(kernels_mod.KINDS, "rule",
                            (namespace, lambda order: built.append(order) or source(order)))
        reports = []
        with fresh_kernels():
            for vals, want in (([1, 0, 3, 0, 25], []), ([1, 0, 3, 0, 25, 0, 400], []),
                               ([1, 0, 1, 0, 3], [2]), ([1, 0, 3, 0, 25], [2]),
                               ([1, 0, 3, 0, 25, 0, 400], [2, 3])):
                reports.append(heat_distance_1d(MomentSequence.of_1d(vals), 1.0))
                assert built == want
        # loops (first distance of an order) and kernel (later ones) agree bit for bit
        assert repr(reports[0]) == repr(reports[3])
        assert repr(reports[1]) == repr(reports[4])


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


def _both_ways(fn, *args):
    """``fn(*args)`` on the loops, then on the kernels, as :func:`outcome`: in
    a fresh state the first call sights each kernel key and the second
    compiles and runs its kernels."""
    with fresh_kernels():
        return [outcome(fn, *args), outcome(fn, *args)]


def _assert_clock(s, nu, tol):
    """``heat_distance_1d(s, nu, tol)`` is ``heat_distance_1d(s, 1.0, tol * nu)``
    with its distance divided by ``nu``, bit for bit, on the loops and on the
    kernels.  Raises ``NotInteriorError`` for an input that is not interior."""
    def reports(nu, tol):
        with fresh_kernels():
            return [heat_distance_1d(s, nu, tol) for _ in range(2)]

    for got, unit in zip(reports(nu, tol), reports(1.0, tol * nu)):
        assert got.distance.hex() == (unit.distance / nu).hex()
        for field in ("boundary_sequence", "kernel_poly", "boundary_atoms", "interval_closed"):
            assert hexed(getattr(got, field)) == hexed(getattr(unit, field)), field


def _assert_recovery_clock(s, nu):
    """``recover_gaussian_mixture(s, nu, tol / nu)`` is the recovery at nu = 1
    and ``tol`` with its width divided by ``nu``, bit for bit, on the loops and
    on the kernels, for a power of two ``nu``, which scales exactly."""
    def results(nu):
        with fresh_kernels():
            return [recover_gaussian_mixture(s, nu, DEFAULT_DISTANCE_TOL / nu)
                    for _ in range(2)]

    for got, unit in zip(results(nu), results(1.0)):
        assert hexed(got.atoms) == hexed(unit.atoms)
        assert got.delta.hex() == (unit.delta / nu).hex()
        assert got.residual.hex() == unit.residual.hex()
        assert got.mixture.nu == nu


class TestScale:
    """The search and the rule run on the standardized moments
    ``s_m / 2**(p + k m)``, and their results are mapped back exactly."""

    def test_the_scale_is_read_off_the_exponents(self):
        # s_0 in [1/2, 1) and s_2 in [1/2, 2) after scaling, also where
        # s_2 / s_0 itself overflows; no scale unless s_0 > 0 and s_2 > 0
        for vals in ([1.0, 0.0, 3.0], [1e-300, 0.0, 1e300], [3e306, 0.0, 1e-300],
                     [5e-324, 0.0, 1.0], [0.7, 0.0, 0.6]):
            p, k = boundary_mod._scale(vals)
            assert 0.5 <= math.ldexp(vals[0], -p) < 1.0
            assert 0.5 <= math.ldexp(vals[2], -p - 2 * k) < 2.0
        for vals in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 1.0], [1.0, 0.0, -1.0]):
            assert boundary_mod._scale(vals) is None

    @pytest.mark.parametrize("vals, pivot", [
        ([0.0, 0, 1, 0, 1], "0 is 0.000e+00"), ([-1.0, 0, 1, 0, 1], "0 is -1.000e+00"),
        ([1.0, 0, 0, 0, 1], "1 is 0.000e+00"), ([1.0, 0, -1, 0, 1], "1 is -1.000e+00"),
    ])
    def test_no_scale_without_positive_mass_and_variance(self, vals, pivot):
        # the search runs on the moments as given and fails its interior test
        # (the bound of a zero mass divided by zero)
        s = MomentSequence.of_1d(vals)
        message = f"NotInteriorError('not interior: Hankel pivot {pivot}, not > 0')"
        for search in (heat_distance_1d, recover_gaussian_mixture):
            assert _both_ways(search, s, 1.0) == [message] * 2

    def test_an_error_quotes_the_callers_units(self):
        # the standardized pivot is -15/32; the search runs again on the moments
        # as given, whose pivot is -15
        s = MomentSequence.of_1d([1, 0, 4, 0, 1])
        message = "NotInteriorError('not interior: Hankel pivot 2 is -1.500e+01, not > 0')"
        assert _both_ways(heat_distance_1d, s, 1.0) == [message] * 2

    def test_a_standardized_moment_beyond_the_float_range_runs_unscaled(self):
        # s_4 / 2**(p + 4 k) overflows; the moments as given read 0.5, as before
        s = MomentSequence.of_1d([1e-300, 0, 1e-300, 0, 1e300])
        with fresh_kernels():  # on the loops, then on the kernels
            assert [heat_distance_1d(s, 1.0).distance for _ in range(2)] == [0.5, 0.5]

    def test_a_width_beyond_the_float_range_takes_no_probe(self):
        # k = -532, so the width 1e-10 * 4**532 in the standardized u
        # overflows and is inf: the search ends on the bound, whose crossing
        # it is (K = 1e140 > 3), and the distance is it mapped back, rounded
        # once below the normal range.  The search on the moments as given
        # raised BracketingError, as the rounded bound left the probe positive
        s = MomentSequence.of_1d([1e300, 0, 1e-20, 0, 1e-200])
        with fresh_kernels():  # on the loops, then on the kernels
            for _ in range(2):
                rep = heat_distance_1d(s, 1.0)
                assert rep.distance == 5e-321
                assert rep.boundary_sequence.as_1d_tuple()[4] == 1e-200

    def test_a_boundary_beyond_the_float_range_is_named(self):
        # two atoms at +-2**520 of mass 2**-1073 each, at the width 2**1000:
        # the moments are floats, but the kernel polynomial's x**2 - 2**1040
        # is not.  The moments as given read "not interior" (s_2**2 / s_0
        # overflows)
        w, a2, t = Fraction(2) ** -1072, Fraction(2) ** 1040, Fraction(2) ** 1000
        s = MomentSequence.of_1d([float(x) for x in (
            w, 0, w * (a2 + 2 * t), 0, w * (a2 * a2 + 12 * a2 * t + 12 * t * t))])
        for search in (heat_distance_1d, recover_gaussian_mixture):
            for got in _both_ways(search, s, 1.0):
                assert got.startswith("OverflowError('the boundary is beyond the float range: "
                                      "the standardized crossing "), got
                assert got.endswith("scale by 2**520 in length and 2**-1071 in mass')")


class TestClock:
    """nu enters the 1-D heat search, and the recovery, once, as the clock
    ``u = nu t``."""

    @pytest.mark.parametrize("nu", [0.3, 3.0, 2.0**-60, 1e-300])
    def test_the_clock_identity_is_exact(self, nu):
        # the first three recover-1d inputs of seed 0 for each k = 2..8
        for s in _recover_workload([0])[:21]:
            _assert_clock(s, nu, DEFAULT_DISTANCE_TOL)

    @pytest.mark.parametrize("e", [-60, -20, -1, 1, 20, 60])
    def test_recovery_clock_identity_is_exact(self, e):
        # the polish runs on u = nu delta, so at nu = 2**e and a bracket of
        # 1e-10 in u it sees what it sees at nu = 1.  A polish of delta, whose
        # Jacobian column is scaled by nu, gave other atoms at e = -60, -20, 60
        for s in _recover_workload([0])[:21]:
            _assert_recovery_clock(s, 2.0**e)

    @pytest.mark.parametrize("nu", [1e-40, 1e-300])
    @pytest.mark.parametrize("k", [3, 8])
    def test_tiny_nu_gives_the_unit_distance_over_nu(self, k, nu):
        # the first k = 3 and k = 8 inputs of recover-1d seed 3; nu**j
        # underflowed in the heat table, which gave distance * nu = 0.249 and
        # 0.194 at nu = 1e-300, and k = 8 overflowed at nu = 1e-40.  The
        # polish of delta dropped its nu-scaled column and left delta * nu
        # 7.4e-8 (relative) and the atoms 1.2e-3 off at k = 8
        s = _recover_workload([3])[k - 2]
        unit = heat_distance_1d(s, 1.0).distance
        with fresh_kernels():  # on the loops, then on the kernels
            for _ in range(2):
                assert abs(heat_distance_1d(s, nu).distance * nu - unit) <= 1e-9
        want = recover_gaussian_mixture(s, 1.0)
        with fresh_kernels():
            for _ in range(2):
                got = recover_gaussian_mixture(s, nu)
                assert abs(got.delta * nu - want.delta) <= 1e-12 * want.delta
                assert np.allclose(got.atoms, want.atoms, rtol=0.0, atol=1e-9)

    def test_a_subnormal_nu_raises_from_the_bound(self):
        # u / nu and the bound s_2 / (2 s_0 nu) are not floats at nu = 1e-320.
        # The distance takes the bound first; the recovery takes no bound at
        # nu, and its width u / nu overflows
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        message = "OverflowError('the distance bound overflows at nu = 1e-320, s_0 = 1.0')"
        assert _both_ways(heat_distance_1d, s, 1e-320) == [message] * 2
        message = "OverflowError('the heat distance 1.0 / nu overflows at nu = 1e-320')"
        assert _both_ways(recover_gaussian_mixture, s, 1e-320) == [message] * 2

    def test_a_distance_beyond_the_float_range_names_nu(self):
        # a Gaussian: the crossing u is the bound at nu = 1, 17.58, and u / nu
        # overflows although the bound at nu, s_2 / (2 s_0 nu), rounds to a float
        s = MomentSequence.of_1d([0.8399221505016723, 0.0, 29.52882471098236, 0.0,
                                  3114.4010964270424])
        nu = 9.77825979133966e-308
        assert distance_upper_bound(s, nu) < math.inf
        message = ("OverflowError('the heat distance 17.578310497791527 / nu overflows at "
                   "nu = 9.77825979133966e-308')")
        assert _both_ways(heat_distance_1d, s, nu) == [message] * 2
        assert _both_ways(recover_gaussian_mixture, s, nu) == [message] * 2

    def test_a_huge_nu_reads_a_distance(self):
        # nu**2 overflowed in the heat table at nu = 1e300; the distance 1e-300
        # is now within the bracket width 1e-10 in t of the answer
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        with fresh_kernels():  # on the loops, then on the kernels
            for _ in range(2):
                assert 0.0 < heat_distance_1d(s, 1e300).distance <= 1e-10
