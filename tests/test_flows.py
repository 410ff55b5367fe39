"""Tests for the heat, transport, and combined moment flows."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from momentflow import (
    AtomicMeasure,
    GaussianMixture,
    MomentSequence,
    PastHorizonError,
    combined_flow,
    enumerate_multiindices,
    evaluate_flow,
    evolve_gaussian_mixture,
    heat_dual_poly,
    heat_flow,
    heat_flow_1d_closed,
    linear_combination,
    oracle_moments_atomic,
    oracle_moments_gaussian_mixture,
    riesz_apply,
    transport_atomic,
    transport_dual_poly,
    transport_flow,
)
from momentflow.exppoly import Term, linear_combine
from momentflow.flows import MomentFlow

from helpers import random_integer_sequence, random_sequence, reference_evolved


def indicator_1d(degree, k):
    return MomentSequence.of_1d([1.0 if i == k else 0.0 for i in range(degree + 1)])


class TestHeatFlow:
    def test_one_dim_table_structure(self):
        # coefficient of s_2(0) in s_4(t) is 12 t, of s_0(0) is 12 t^2
        F2 = heat_flow(indicator_1d(5, 2), 1.0)
        assert F2.entry((4,)).terms == (Term(12.0, 1, (0,)),)
        F0 = heat_flow(indicator_1d(5, 0), 1.0)
        assert F0.entry((4,)).terms == (Term(12.0, 2, (0,)),)
        assert F0.entry((2,)).terms == (Term(2.0, 1, (0,)),)

    def test_dirac_second_moment(self):
        F = heat_flow(MomentSequence.of_1d([1, 0, 0]), 1.0)
        assert F.entry((2,)).terms == (Term(2.0, 1, (0,)),)
        assert evaluate_flow(F, 1.0).as_1d_tuple() == (1.0, 0.0, 2.0)

    def test_standard_normal_to_variance_two(self):
        F = heat_flow(MomentSequence.of_1d([1, 0, 1, 0, 3]), 1.0)
        assert evaluate_flow(F, 0.5).as_1d_tuple() == (1.0, 0.0, 2.0, 0.0, 12.0)

    def test_rate_vectors_all_zero(self):
        rng = np.random.default_rng(2)
        F = heat_flow(random_sequence(rng, 2, 4), 0.7)
        for f in F.entries.values():
            assert all(t.rate == (0, 0) for t in f.terms)

    def test_degree_bound(self):
        rng = np.random.default_rng(4)
        F = heat_flow(random_sequence(rng, 3, 6), 1.3)
        for alpha, f in F.entries.items():
            top = max((t.power for t in f.terms), default=-1)
            assert top <= sum(aj // 2 for aj in alpha)

    def test_requires_positive_nu(self):
        with pytest.raises(ValueError):
            heat_flow(MomentSequence.of_1d([1, 0, 1]), 0.0)


class TestFlowParams:
    def test_kind_constraints(self):
        from momentflow import FlowParams

        with pytest.raises(ValueError, match="zero drift"):
            FlowParams("heat", 1.0, (0.5,))
        with pytest.raises(ValueError, match="nu = 0"):
            FlowParams("transport", 1.0, (0.5,))
        with pytest.raises(ValueError, match="nu >= 0"):
            FlowParams("combined", -1.0, (0.5,))
        with pytest.raises(ValueError, match="unknown flow kind"):
            FlowParams("advection", 0.0, (0.5,))


class TestHeatFlowClosedForm:
    def test_second_moment_coefficient(self):
        F = heat_flow_1d_closed(indicator_1d(2, 0), 1.5)
        assert F.entry((2,)).terms == (Term(2.0 * 1.5, 1, (0,)),)

    def test_fourth_moment_coefficient(self):
        # coefficient of s_2(0) * (nu t) is 4! / (2! 1!) = 12
        F = heat_flow_1d_closed(indicator_1d(4, 2), 1.0)
        assert F.entry((4,)).terms == (Term(12.0, 1, (0,)),)
        assert F.entry((2,)).terms == (Term(1.0, 0, (0,)),)

    def test_odd_moment_line(self):
        # s_5(t) = s_5(0) + 20 s_3(0) t + 60 s_1(0) t^2
        F3 = heat_flow_1d_closed(indicator_1d(5, 3), 1.0)
        assert F3.entry((5,)).terms == (Term(20.0, 1, (0,)),)
        F1 = heat_flow_1d_closed(indicator_1d(5, 1), 1.0)
        assert F1.entry((5,)).terms == (Term(60.0, 2, (0,)),)

    def test_exact_agreement_with_recursion_integer_data(self):
        rng = np.random.default_rng(6)
        for nu in (1.0, 3.0):
            for _ in range(10):
                s = random_integer_sequence(rng, 1, 12)
                assert heat_flow(s, nu).entries == heat_flow_1d_closed(s, nu).entries

    def test_agreement_with_recursion_real_nu(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = random_sequence(rng, 1, 10)
            nu = rng.uniform(0.1, 2.0)
            Fa, Fb = heat_flow(s, nu), heat_flow_1d_closed(s, nu)
            for alpha in s.indices():
                ta = {(t.power, t.rate): t.coeff for t in Fa.entry(alpha).terms}
                tb = {(t.power, t.rate): t.coeff for t in Fb.entry(alpha).terms}
                assert set(ta) == set(tb)
                for key, ca in ta.items():
                    assert ca == pytest.approx(tb[key], rel=1e-15)


class TestTransportFlow:
    def test_second_moment_decay(self):
        s = MomentSequence.of_1d([1.0, 0.5, 4.0])
        F = transport_flow(s, (1.0,))
        assert evaluate_flow(F, math.log(2))[(2,)] == pytest.approx(0.5, rel=1e-14)

    def test_zero_drift_is_constant(self):
        s = MomentSequence.of_1d([2.0, 3.0, 4.0])
        F = transport_flow(s, (0.0,))
        for f in F.entries.values():
            assert all(t.rate == (0,) for t in f.terms)
        assert evaluate_flow(F, 5.0).as_1d_tuple() == (2.0, 3.0, 4.0)

    def test_mixed_sign_drift(self):
        s = MomentSequence(2, 1, {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0})
        F = transport_flow(s, (1.0, -1.0))
        # rate for (1,0) is -(2*1 + 1*(-1)) = -1
        t = 0.8
        assert evaluate_flow(F, t)[(1, 0)] == pytest.approx(2.0 * math.exp(-t), rel=1e-14)


class TestCombinedFlow:
    def test_positive_drift_example(self):
        s = MomentSequence.of_1d([2.0, 3.0, 5.0, 7.0])
        F = combined_flow(s, 1.0, (1.0,))
        assert F.entry((0,)).terms == (Term(2.0, 0, (-1,)),)
        assert F.entry((1,)).terms == (Term(3.0, 0, (-2,)),)
        # s_2(t) = (s_2(0) - s_0(0)) e^{-3t} + s_0(0) e^{-t}
        assert F.entry((2,)).terms == (Term(3.0, 0, (-3,)), Term(2.0, 0, (-1,)))
        # s_3(t) = (s_3(0) - 3 s_1(0)) e^{-4t} + 3 s_1(0) e^{-2t}
        assert F.entry((3,)).terms == (Term(-2.0, 0, (-4,)), Term(9.0, 0, (-2,)))

    def test_negative_drift_example(self):
        s = MomentSequence.of_1d([2.0, 3.0, 5.0, 7.0])
        F = combined_flow(s, 1.0, (-1.0,))
        # stored rate (-3,) realizes +3 for a = -1
        assert F.entry((2,)).terms == (Term(7.0, 0, (-3,)), Term(-2.0, 0, (-1,)))
        assert F.entry((3,)).terms == (Term(16.0, 0, (-4,)), Term(-9.0, 0, (-2,)))
        t = 0.4
        want = (5.0 + 2.0) * math.exp(3 * t) - 2.0 * math.exp(t)
        assert evaluate_flow(F, t)[(2,)] == pytest.approx(want, rel=1e-14)

    def test_reduces_to_heat(self):
        s = MomentSequence.of_1d([1, 0, 1, 0, 3])
        assert combined_flow(s, 1.0, (0.0,)).entries == heat_flow(s, 1.0).entries

    def test_reduces_to_transport(self):
        rng = np.random.default_rng(12)
        s = random_sequence(rng, 2, 3)
        a = (0.7, -0.4)
        assert combined_flow(s, 0.0, a).entries == transport_flow(s, a).entries

    def test_against_reference_ode(self):
        rng = np.random.default_rng(14)
        for _ in range(4):
            n = int(rng.integers(1, 3))
            d = int(rng.integers(2, 7))
            s = random_sequence(rng, n, d)
            nu = rng.uniform(0.2, 1.5)
            a = tuple(rng.uniform(-1, 1, size=n))
            F = combined_flow(s, nu, a)
            for t in (-1.0, 0.5, 2.0):
                got = evaluate_flow(F, t)
                want = reference_evolved(s.values, nu, a, t)
                for alpha in s.indices():
                    assert got[alpha] == pytest.approx(
                        want[alpha], rel=1e-7, abs=1e-9
                    )

    def test_the_reference_uses_no_library_name(self):
        # the RK45 reference is the flows' oracle, so neither it nor a helper
        # it calls may use a name that tests/helpers.py imports from momentflow
        tree = ast.parse((Path(__file__).parent / "helpers.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("momentflow"):
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names
                             if alias.name.split(".")[0] == "momentflow"}
        assert "MomentSequence" in imported
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        todo, seen = ["moment_ode_matrix", "reference_evolved"], set()
        while todo:
            name = todo.pop()
            seen.add(name)
            used = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
            assert not used & imported, (name, sorted(used & imported))
            todo += sorted((used & set(functions)) - seen)
        assert seen == {"moment_ode_matrix", "reference_evolved", "graded_indices"}

    def test_the_reference_returns_plain_moments(self):
        s = MomentSequence(2, 2, {alpha: 1.0 for alpha in enumerate_multiindices(2, 2)})
        for t in (0.0, 0.5):
            want = reference_evolved(s.values, 0.5, (0.3, -0.2), t)
            assert type(want) is dict and list(want) == list(s.indices())
            assert all(type(v) is float for v in want.values())


class TestEvaluateFlow:
    def test_time_zero_identity_exact(self):
        rng = np.random.default_rng(16)
        s = random_sequence(rng, 2, 5)
        assert evaluate_flow(heat_flow(s, 1.2), 0.0).values == s.values
        assert evaluate_flow(transport_flow(s, (0.3, -2.0)), 0.0).values == s.values

    def test_time_zero_combined_near_exact(self):
        # merged integration constants can exceed the moments by orders of
        # magnitude; the t = 0 defect is bounded by one ulp of those terms
        rng = np.random.default_rng(17)
        s = random_sequence(rng, 1, 8)
        F = combined_flow(s, 1.0, (0.9,))
        got = evaluate_flow(F, 0.0)
        for alpha in s.indices():
            scale = max(abs(t.coeff) for t in F.entry(alpha).terms)
            assert abs(got[alpha] - s[alpha]) <= 4e-16 * scale


    @staticmethod
    def make_flow(kind, s, nu, a):
        if kind == "heat":
            return heat_flow(s, nu)
        if kind == "transport":
            return transport_flow(s, a)
        return combined_flow(s, nu, a)

    FLOWS = [
        ("heat", 0.8, None),
        ("transport", 0.0, (0.6, -0.4)),
        ("combined", 0.7, (0.9, -0.3)),
        ("combined", 0.7, (0.0, 0.5)),  # zero component: resonant t-powers
        ("combined", 0.7, (0.5, 1e-9)),  # near-resonant coefficients
    ]

    @pytest.mark.parametrize("kind, nu, a", FLOWS)
    def test_matches_per_entry_evaluation_bit_for_bit(self, kind, nu, a):
        # straight-line reference: each term on its own, in the library's
        # operation order, with no shared tables or compiled plan
        def reference(f, a, t):
            return math.fsum(
                term.coeff * t**term.power
                * math.exp((0.0 if term.resonant else math.fsum(
                    m * x for m, x in zip(term.rate, a))) * t)
                for term in f.terms
            )

        s = random_sequence(np.random.default_rng(18), 2, 6)
        F = self.make_flow(kind, s, nu, a)
        for t in (-0.5, 0.0, 0.5, 2.0):
            got = evaluate_flow(F, t)
            want = {alpha: reference(f, F.params.a, t) for alpha, f in F.entries.items()}
            assert [got[alpha].hex() for alpha in s.indices()] == [
                want[alpha].hex() for alpha in s.indices()
            ]

    @pytest.mark.parametrize("kind, nu, a", FLOWS)
    def test_evaluation_leaves_the_flow_unchanged(self, kind, nu, a):
        s = random_sequence(np.random.default_rng(19), 2, 5)
        F = self.make_flow(kind, s, nu, a)
        for t in np.linspace(-1.0, 2.0, 25):
            got = evaluate_flow(F, float(t))
        fresh = self.make_flow(kind, s, nu, a)
        assert F == fresh
        assert repr(F) == repr(fresh)
        assert list(got.values) == s.indices()
        assert all(type(x) is int for alpha in got.values for x in alpha)
        assert all(type(v) is float for v in got.values.values())

    def test_entry_order_does_not_matter(self):
        # a flow read from JSON may list its entries in any order
        s = random_sequence(np.random.default_rng(20), 2, 4)
        F = combined_flow(s, 0.6, (0.4, -0.7))
        shuffled = MomentFlow(F.n, F.degree, F.params, dict(reversed(F.entries.items())))
        got, want = evaluate_flow(shuffled, 0.8), evaluate_flow(F, 0.8)
        assert list(got.values) == s.indices()
        assert got.values == want.values

    def test_incomplete_flow_rejected(self):
        s = random_sequence(np.random.default_rng(21), 1, 4)
        F = heat_flow(s, 1.0)
        entries = dict(F.entries)
        del entries[(3,)]
        with pytest.raises(ValueError, match="index set"):
            evaluate_flow(MomentFlow(1, 4, F.params, entries), 0.5)

    N2 = MomentSequence(2, 4, dict.fromkeys(enumerate_multiindices(2, 4), 1.0))

    @pytest.mark.parametrize("s, kind, a, t", [
        # t**2 overflows in the power table
        (N2, "heat", None, 1e200),
        # exp(4000) overflows
        (N2, "transport", (-1.0, 1.0), 1000.0),
        # 12 s_2 t overflows to inf without raising
        (MomentSequence.of_1d([1, 0, 1e300, 0, 1e300]), "heat", None, 1e10),
        # 12 s_2 t and 12 s_0 t**2 overflow to +inf and -inf
        (MomentSequence.of_1d([-1e300, 0, 1e300, 0, 0]), "heat", None, 1e10),
    ], ids=["power", "exp", "inf", "inf-minus-inf"])
    def test_overflow_names_the_time(self, s, kind, a, t):
        with pytest.raises((OverflowError, ValueError), match=re.escape(f"at t = {t!r}")):
            evaluate_flow(self.make_flow(kind, s, 1.0, a), t)


class TestSemigroupAndLinearity:
    def make_flow(self, kind, s, rng):
        # drift magnitudes stay >= 0.2: near-resonant rates amplify roundoff
        if kind == "heat":
            return lambda q: heat_flow(q, 1.0)
        if kind == "transport":
            a = tuple(rng.choice([-1, 1]) * rng.uniform(0.2, 1) for _ in range(s.n))
            return lambda q: transport_flow(q, a)
        a = tuple(rng.choice([-1, 1]) * rng.uniform(0.2, 1) for _ in range(s.n))
        nu = rng.uniform(0.1, 1.5)
        return lambda q: combined_flow(q, nu, a)

    @staticmethod
    def abs_addends(F, t):
        """Each entry of ``F`` at ``t`` with every term replaced by its absolute value."""
        a = F.params.a
        return {
            alpha: math.fsum(
                abs(term.coeff * t**term.power
                    * math.exp(t * math.fsum(r * x for r, x in zip(term.rate, a))))
                for term in f.terms
            )
            for alpha, f in F.entries.items()
        }

    @pytest.mark.parametrize("kind", ["heat", "transport", "combined"])
    def test_semigroup(self, kind):
        # Rounding is bounded by c * eps times the condition scale: both paths
        # evaluated on the absolute values of their addends, the inner result
        # of the two-step path replaced by its own scale.  Over generator
        # seeds 0-199 the worst ratio was 57 eps (combined); c = 512 keeps a
        # margin, and where nothing cancels the bound is about 2.3e-13 relative.
        rng = np.random.default_rng({"heat": 11, "transport": 12, "combined": 13}[kind])
        for _ in range(15):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(2, 9 - 2 * (n - 1)))
            s = random_sequence(rng, n, d)
            make = self.make_flow(kind, s, rng)
            t1, t2 = rng.uniform(-1, 1, size=2)
            F = make(s)
            one = evaluate_flow(make(evaluate_flow(F, t1)), t2)
            both = evaluate_flow(F, t1 + t2)
            inner = MomentSequence(n, d, self.abs_addends(F, t1))
            scale_one = self.abs_addends(make(inner), t2)
            scale_both = self.abs_addends(F, t1 + t2)
            for alpha in s.indices():
                bound = 512 * 2.0**-52 * (scale_one[alpha] + scale_both[alpha])
                assert abs(one[alpha] - both[alpha]) <= bound, alpha

    @pytest.mark.parametrize("kind", ["heat", "transport"])
    def test_linearity_exact_structure(self, kind):
        rng = np.random.default_rng(42)
        for _ in range(8):
            n = int(rng.integers(1, 3))
            d = int(rng.integers(2, 6))
            s1 = random_integer_sequence(rng, n, d)
            s2 = random_integer_sequence(rng, n, d)
            ca, cb = float(rng.integers(-3, 4)), float(rng.integers(-3, 4))
            make = self.make_flow(kind, s1, rng)
            Fsum = make(linear_combination([ca, cb], [s1, s2]))
            F1, F2 = make(s1), make(s2)
            for alpha in s1.indices():
                combo = linear_combine([ca, cb], [F1.entry(alpha), F2.entry(alpha)])
                assert Fsum.entry(alpha) == combo

    def test_linearity_combined_coefficients(self):
        # the 1/rate divisions in the combined recursion associate differently
        # on the two sides, so coefficients agree to rounding, not bit-exactly
        rng = np.random.default_rng(43)
        for _ in range(8):
            n = int(rng.integers(1, 3))
            d = int(rng.integers(2, 6))
            s1 = random_sequence(rng, n, d)
            s2 = random_sequence(rng, n, d)
            ca, cb = rng.normal(), rng.normal()
            a = tuple(rng.uniform(-1, 1, size=n))
            nu = rng.uniform(0.1, 1.5)
            Fsum = combined_flow(linear_combination([ca, cb], [s1, s2]), nu, a)
            F1 = combined_flow(s1, nu, a)
            F2 = combined_flow(s2, nu, a)
            for alpha in s1.indices():
                combo = linear_combine([ca, cb], [F1.entry(alpha), F2.entry(alpha)])
                got = {(t.power, t.rate, t.resonant): t.coeff
                       for t in Fsum.entry(alpha).terms}
                want = {(t.power, t.rate, t.resonant): t.coeff for t in combo.terms}
                scale = max(
                    [abs(c) for c in want.values()] + [1e-300]
                )
                for key in set(got) | set(want):
                    assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= 1e-13 * scale


class TestMeasureEvolution:
    def test_evolve_matches_heat_flow(self):
        g = GaussianMixture(1, 1.0, (((0.0,), 1.0, 0.5),))
        evolved = evolve_gaussian_mixture(g, 0.5)
        assert evolved.components[0][2] == 1.0
        s0 = oracle_moments_gaussian_mixture(g, 4)
        lhs = oracle_moments_gaussian_mixture(evolved, 4)
        rhs = evaluate_flow(heat_flow(s0, 1.0), 0.5)
        for alpha in lhs.indices():
            assert lhs[alpha] == pytest.approx(rhs[alpha], rel=1e-12, abs=1e-12)

    def test_evolve_zero_is_identity(self):
        g = GaussianMixture(2, 0.5, (((1.0, -1.0), 2.0, 0.7),))
        assert evolve_gaussian_mixture(g, 0.0) == g

    def test_evolve_back_to_dirac(self):
        g = GaussianMixture(1, 1.0, (((0.0,), 1.0, 0.5),))
        back = evolve_gaussian_mixture(g, -0.5)
        assert back.components[0][2] == 0.0
        s = oracle_moments_gaussian_mixture(back, 3)
        assert s.as_1d_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_past_horizon_rejected(self):
        g = GaussianMixture(1, 1.0, (((0.0,), 1.0, 0.5), ((1.0,), 1.0, 1.5)))
        with pytest.raises(PastHorizonError, match="past horizon"):
            evolve_gaussian_mixture(g, -0.6)

    def test_nan_time_rejected(self):
        g = GaussianMixture(1, 1.0, (((0.0,), 1.0, 0.5),))
        with pytest.raises(ValueError, match="component 0 is not finite"):
            evolve_gaussian_mixture(g, math.nan)

    def test_commutation_random(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            comps = tuple(
                ((rng.uniform(-2, 2),), rng.uniform(0.2, 1), rng.uniform(0.1, 1.5))
                for _ in range(k)
            )
            g = GaussianMixture(1, 1.0, comps)
            d = int(rng.integers(2, 9))
            t = rng.uniform(-g.min_time, 2.0)
            lhs = oracle_moments_gaussian_mixture(evolve_gaussian_mixture(g, t), d)
            rhs = evaluate_flow(heat_flow(oracle_moments_gaussian_mixture(g, d), 1.0), t)
            for alpha in lhs.indices():
                assert lhs[alpha] == pytest.approx(rhs[alpha], rel=1e-9, abs=1e-10)


class TestTransportAtomic:
    def test_unit_atom(self):
        mu = AtomicMeasure(1, (((1.0,), 1.0),))
        out = transport_atomic(mu, (1.0,), math.log(2))
        (point, weight), = out.atoms
        assert point == (0.5,)
        assert weight == pytest.approx(0.5, rel=1e-15)

    def test_nan_time_rejected(self):
        mu = AtomicMeasure(1, (((1.0,), 1.0),))
        with pytest.raises(ValueError, match="atom 0 is not finite"):
            transport_atomic(mu, (1.0,), math.nan)

    def test_time_zero_identity(self):
        mu = AtomicMeasure(2, (((1.0, 2.0), 0.5), ((0.0, -1.0), 1.5)))
        assert transport_atomic(mu, (0.3, 0.7), 0.0) == mu

    def test_group_property(self):
        mu = AtomicMeasure(1, (((1.5,), 0.25), ((-0.5,), 0.75)))
        back = transport_atomic(transport_atomic(mu, (1.0,), math.log(2)),
                                (1.0,), -math.log(2))
        for (p, w), (q, v) in zip(back.atoms, mu.atoms):
            assert p[0] == pytest.approx(q[0], abs=1e-13)
            assert w == pytest.approx(v, abs=1e-13)

    def test_pushforward_matches_flow(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            mu = AtomicMeasure(
                n,
                tuple((tuple(rng.uniform(-2, 2, size=n)), rng.uniform(0.2, 1))
                      for _ in range(k)),
            )
            a = tuple(rng.uniform(-1, 1, size=n))
            d = int(rng.integers(1, 5))
            t = rng.uniform(-2, 2)
            lhs = oracle_moments_atomic(transport_atomic(mu, a, t), d)
            rhs = evaluate_flow(transport_flow(oracle_moments_atomic(mu, d), a), t)
            for alpha in lhs.indices():
                assert lhs[alpha] == pytest.approx(rhs[alpha], rel=1e-12, abs=1e-13)


class TestDualActions:
    def test_heat_dual_square(self):
        p = heat_dual_poly({(2,): 1.0}, 1.0, 3.0)
        assert p == {(2,): 1.0, (0,): 6.0}

    def test_heat_dual_quartic(self):
        t = 0.7
        p = heat_dual_poly({(4,): 1.0}, 1.0, t)
        assert p[(4,)] == 1.0
        assert p[(2,)] == pytest.approx(12 * t)
        assert p[(0,)] == pytest.approx(12 * t * t)

    def test_heat_dual_harmonic(self):
        assert heat_dual_poly({(1,): 1.0}, 1.0, 9.0) == {(1,): 1.0}

    def test_heat_adjunction_random(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            d = int(rng.integers(2, 7))
            s = random_sequence(rng, n, d)
            nu = rng.uniform(0.2, 2.0)
            t = rng.uniform(-1, 1)
            idx = [a for a in s.indices()]
            p0 = {a: rng.normal() for a in idx}
            lhs = riesz_apply(evaluate_flow(heat_flow(s, nu), t), p0)
            rhs = riesz_apply(s, heat_dual_poly(p0, nu, t))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(riesz_apply(s, p0)))

    def test_transport_dual_scaling(self):
        t = 0.6
        p = transport_dual_poly({(2,): 1.0}, (1.0,), t)
        assert p == {(2,): math.exp(2 * t)}
        assert transport_dual_poly({(0,): 3.0}, (1.0,), t) == {(0,): 3.0}

    def test_transport_dual_preserves_riesz_zero(self):
        s = MomentSequence.of_1d([1, 0, 1, 0, 1])
        p0 = {(2,): 1.0, (0,): -1.0}
        assert riesz_apply(s, p0) == 0.0
        for t in (1.0, -1.0, 0.3, -0.3):
            pt = transport_dual_poly(p0, (1.0,), t)
            st = evaluate_flow(transport_flow(s, (1.0,)), t)
            assert riesz_apply(st, pt) == pytest.approx(0.0, abs=1e-14)

    def test_transport_adjunction_identity(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            d = int(rng.integers(1, 6))
            s = random_sequence(rng, n, d)
            a = tuple(rng.uniform(-1, 1, size=n))
            t = rng.uniform(-2, 2)
            p0 = {alpha: rng.normal() for alpha in s.indices()}
            pt = transport_dual_poly(p0, a, t)
            lhs = riesz_apply(evaluate_flow(transport_flow(s, a), t), pt)
            rhs = math.exp(-sum(a) * t) * riesz_apply(s, p0)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
