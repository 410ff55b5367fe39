"""Tests for the exponential-polynomial algebra."""

import math
import struct

import numpy as np
import pytest

from momentflow import MomentSequence, enumerate_multiindices, flows
from momentflow.exppoly import (
    ExpPoly,
    Term,
    canonicalize,
    compile_all,
    evaluate,
    integrate_with_rate,
    linear_combine,
    shift_rate,
)


def ep(n, *terms):
    return canonicalize(ExpPoly(n, tuple(Term(c, k, tuple(m)) for c, k, m in terms)))


class TestCanonicalize:
    def test_like_term_merge(self):
        f = ExpPoly(1, (Term(1.0, 0, (0,)), Term(2.0, 0, (0,))))
        assert canonicalize(f).terms == (Term(3.0, 0, (0,)),)

    def test_cancellation_to_zero(self):
        f = ExpPoly(1, (Term(1.0, 1, (0,)), Term(-1.0, 1, (0,))))
        assert canonicalize(f).terms == ()

    def test_merge_with_rate_vector(self):
        f = ExpPoly(2, (Term(0.5, 2, (2, 0)), Term(0.5, 2, (2, 0))))
        assert canonicalize(f).terms == (Term(1.0, 2, (2, 0)),)

    def test_no_epsilon_pruning(self):
        f = ExpPoly(1, (Term(1e-300, 0, (0,)),))
        assert canonicalize(f).terms == (Term(1e-300, 0, (0,)),)


class TestEvaluate:
    def test_constant(self):
        f = ep(1, (1.0, 0, (0,)))
        assert evaluate(f, (3.7,), 7.0) == 1.0

    def test_pure_exponential(self):
        f = ep(1, (1.0, 0, (-3,)))
        assert evaluate(f, (1.0,), math.log(2)) == pytest.approx(0.125, rel=1e-15)

    def test_heat_entry_value(self):
        # 12 t^2 + 12 t + 3 at t = 0.5 equals 12
        f = ep(1, (12.0, 2, (0,)), (12.0, 1, (0,)), (3.0, 0, (0,)))
        assert evaluate(f, (0.0,), 0.5) == 12.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(ep(2, (1.0, 0, (0, 0))), (1.0,), 0.0)

    def test_shared_table_keeps_resonant_terms_apart(self):
        # same rate vector, one term flagged resonant: the flag realizes rate 0
        plain = ExpPoly(1, (Term(1.0, 0, (1,)),))
        flagged = ExpPoly(1, (Term(1.0, 0, (1,), True),))
        assert compile_all([plain, flagged, plain], (2.0,)).run(1.0) == [
            math.exp(2.0), 1.0, math.exp(2.0)
        ]
        assert compile_all([flagged, plain], (2.0,)).run(1.0) == [1.0, math.exp(2.0)]

    def test_plan_realizes_each_rate_once(self):
        f = ep(2, (1.0, 0, (1, 0)), (2.0, 3, (1, 0)), (-1.0, 1, (0, 2)))
        g = ExpPoly(2, (Term(0.5, 2, (1, 0)), Term(4.0, 0, (1, 0), True)))
        plan = compile_all([f, g, f], (0.5, -0.25))
        assert plan.rates == (0.5, -0.5, 0.0)  # f is sorted by power: (1, 0) first
        assert plan.max_power == 3
        for t in (-1.5, 0.0, 0.75):
            assert plan.run(t) == [evaluate(h, (0.5, -0.25), t) for h in (f, g, f)]

    def test_evaluate_all_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compile_all([ep(1, (1.0, 0, (0,))), ep(2, (1.0, 0, (0, 0)))], (1.0,)).run(0.0)


def _bits(values):
    # struct tells -0.0 from 0.0, which == does not
    return struct.pack(f"<{len(values)}d", *values)


class TestRunGrid:
    """``Plan.run_grid(ts)[i][j]`` has the bits of ``Plan.run(ts[j])[i]``."""

    DRIFTS = (0.0, 1e-9, -1e-9, 1e-13, -1e-13, 0.6, -0.6)
    GRIDS = (
        (0.0, -0.0, 1e-3, 0.37, 1.0, 2.5, 7.0),
        (-0.0, -1e-3, -0.02, 0.0, 0.5),
        (-0.004, 0.004, 0.011),
        (0.0,), (-0.0,), (1.3,), (-0.2,),
    )

    @staticmethod
    def _flows(rng, n):
        degree = {1: 6, 2: 5, 3: 4}[n]
        vals = rng.normal(size=math.comb(n + degree, n))
        for j in rng.choice(len(vals), size=len(vals) // 3, replace=False):
            vals[j] = rng.choice([0.0, 1e-300, -1e-300])
        s = MomentSequence(n, degree, dict(zip(enumerate_multiindices(n, degree), vals)))
        # half the components are drawn from 200-400, where addends underflow
        a = tuple(float(rng.choice(TestRunGrid.DRIFTS)) if rng.random() < 0.5
                  else float(rng.choice([-1, 1]) * rng.uniform(200, 400)) for _ in range(n))
        nu = float(rng.uniform(0.2, 1.5))
        return (flows.heat_flow(s, nu), flows.transport_flow(s, a),
                flows.combined_flow(s, nu, a))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_columns_have_the_bits_of_each_run(self, n, seed):
        rng = np.random.default_rng([seed, n, 23])
        compared = 0
        for F in self._flows(rng, n):
            plan = F._plan[1]
            for ts in self.GRIDS:
                try:
                    rows = [plan.run(t) for t in ts]
                except (OverflowError, ValueError):
                    # a grid with a time that raises raises as a whole
                    with pytest.raises((OverflowError, ValueError)):
                        plan.run_grid(ts)
                    continue
                cols = plan.run_grid(ts)
                assert len(cols) == len(plan.entries)
                for i, col in enumerate(cols):
                    assert _bits(col) == _bits([row[i] for row in rows]), (F.params, ts, i)
                compared += len(ts)
        assert compared > 0

    def test_entry_without_terms_is_positive_zero(self):
        plan = compile_all([ExpPoly(1, ()), ep(1, (-1e-300, 0, (-1,)))], (300.0,))
        ts = [-0.0, 0.0, 2.0]
        assert [_bits(col) for col in plan.run_grid(ts)] == [
            _bits([plan.run(t)[i] for t in ts]) for i in range(2)]
        # exp(-600) * -1e-300 underflows to -0.0, and fsum([-0.0]) is 0.0
        assert _bits(plan.run_grid(ts)[1]) == _bits([-1e-300, -1e-300, 0.0])


class TestLinearCombine:
    def test_identity(self):
        f = ep(1, (2.0, 1, (1,)))
        g = ep(1, (5.0, 0, (0,)))
        assert linear_combine([1.0, 0.0], [f, g]) == f

    def test_self_cancellation(self):
        f = ep(1, (2.0, 1, (1,)), (1.0, 0, (0,)))
        assert linear_combine([1.0, -1.0], [f, f]).terms == ()

    def test_polynomial_sum(self):
        t1 = ep(1, (1.0, 1, (0,)))
        t2 = ep(1, (1.0, 2, (0,)))
        out = linear_combine([2.0, 3.0], [t1, t2])
        assert out.terms == (Term(2.0, 1, (0,)), Term(3.0, 2, (0,)))

    def test_eval_linearity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 3))
            a = tuple(rng.uniform(-1, 1, size=n))
            f = ep(n, *[(rng.normal(), int(rng.integers(0, 3)),
                         tuple(rng.integers(-3, 4, size=n))) for _ in range(4)])
            g = ep(n, *[(rng.normal(), int(rng.integers(0, 3)),
                         tuple(rng.integers(-3, 4, size=n))) for _ in range(4)])
            ca, cb = rng.normal(), rng.normal()
            t = rng.uniform(-1.5, 1.5)
            lhs = evaluate(linear_combine([ca, cb], [f, g]), a, t)
            rhs = ca * evaluate(f, a, t) + cb * evaluate(g, a, t)
            assert abs(lhs - rhs) <= 1e-13 * (1 + abs(rhs))


class TestIntegrateWithRate:
    def test_constant_resonant(self):
        f = ep(1, (1.0, 0, (0,)))
        out = integrate_with_rate(f, (0,), (0.0,))
        assert out.terms == (Term(1.0, 1, (0,)),)

    def test_constant_against_exponential(self):
        # int_0^t e^{2 tau} dtau = (e^{2t} - 1) / 2
        f = ep(1, (1.0, 0, (0,)))
        out = integrate_with_rate(f, (2,), (1.0,))
        assert out.terms == (Term(-0.5, 0, (0,)), Term(0.5, 0, (2,)))

    def test_cancelling_rates_resonate(self):
        # integrand e^{-2 tau} against e^{+2 tau} is identically 1
        f = ep(1, (1.0, 0, (-2,)))
        out = integrate_with_rate(f, (2,), (1.0,))
        assert out.terms == (Term(1.0, 1, (0,)),)

    def test_zero_at_zero_exact(self):
        # single-rate integrands: the lower-limit constant cancels its
        # exponential partner exactly under fsum
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            a = tuple(rng.uniform(-2, 2, size=n))
            m = tuple(int(x) for x in rng.integers(-3, 4, size=n))
            f = ep(n, *[(rng.normal(), int(rng.integers(0, 4)), m) for _ in range(3)])
            mu = tuple(int(x) for x in rng.integers(-2, 3, size=n))
            out = integrate_with_rate(f, mu, a)
            assert evaluate(out, a, 0.0) == 0.0

    def test_zero_at_zero_multi_rate(self):
        # constants of different source rates merge at rate zero; the defect
        # is at most one rounding of that merge
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            a = tuple(rng.uniform(-2, 2, size=n))
            f = ep(n, *[(rng.normal(), int(rng.integers(0, 4)),
                         tuple(int(x) for x in rng.integers(-3, 4, size=n)))
                        for _ in range(5)])
            mu = tuple(int(x) for x in rng.integers(-2, 3, size=n))
            out = integrate_with_rate(f, mu, a)
            scale = max((abs(t.coeff) for t in out.terms), default=1.0)
            assert abs(evaluate(out, a, 0.0)) <= 1e-16 * scale

    def test_derivative_matches_integrand(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            a = tuple(rng.uniform(-2, 2, size=n))
            f = ep(n, *[(rng.normal(), int(rng.integers(0, 3)),
                         tuple(rng.integers(-2, 3, size=n))) for _ in range(4)])
            mu = tuple(rng.integers(-2, 3, size=n))
            F = integrate_with_rate(f, mu, a)
            t = rng.uniform(-1.0, 1.0)
            h = 1e-5
            deriv = (evaluate(F, a, t + h) - evaluate(F, a, t - h)) / (2 * h)
            mu_rate = sum(m * x for m, x in zip(mu, a))
            want = evaluate(f, a, t) * math.exp(mu_rate * t)
            assert deriv == pytest.approx(want, rel=1e-6, abs=1e-8)

    def test_exact_cancellation_unflagged(self):
        # combined rate vector (0,) realizes zero exactly: no flag needed
        f = ep(1, (1.0, 0, (-1,)))
        out = integrate_with_rate(f, (1,), (1e-14,))
        assert out.terms == (Term(1.0, 1, (0,), resonant=False),)

    def test_near_resonance_flagged(self):
        # (1,-2) + (1,0) = (2,-2) realizes -2e-14 with a = (1, 1+1e-14):
        # tiny but nonzero, so the term is flagged and realizes rate 0
        a = (1.0, 1.0 + 1e-14)
        out = integrate_with_rate(ep(2, (1.0, 0, (1, -2))), (1, 0), a)
        assert len(out.terms) == 1
        term = out.terms[0]
        assert term.resonant and term.power == 1 and term.rate == (2, -2)
        assert evaluate(out, a, 2.0) == pytest.approx(2.0, rel=1e-12)


class TestShiftRate:
    def test_shifts_all_rates(self):
        f = ep(2, (1.0, 1, (1, 0)), (2.0, 0, (0, 0)))
        out = shift_rate(f, (0, -1))
        assert out.terms == (Term(2.0, 0, (0, -1)), Term(1.0, 1, (1, -1)))

    def test_matches_exponential_multiplication(self):
        f = ep(1, (1.5, 1, (2,)), (-0.5, 0, (-1,)))
        a, t = (0.7,), 0.9
        lhs = evaluate(shift_rate(f, (-3,)), a, t)
        rhs = evaluate(f, a, t) * math.exp(-3 * 0.7 * t)
        assert lhs == pytest.approx(rhs, rel=1e-14)
