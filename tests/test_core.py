"""Tests for moment sequences, the Riesz functional, and the moment oracles."""

import math

import numpy as np
import pytest

from momentflow import (
    AtomicMeasure,
    GaussianMixture,
    MomentSequence,
    QuadratureError,
    enumerate_multiindices,
    linear_combination,
    oracle_moments_atomic,
    oracle_moments_gaussian_mixture,
    oracle_moments_quadrature,
    riesz_apply,
    stieltjes_sequence,
)


class TestEnumerateMultiindices:
    def test_1d_graded(self):
        assert enumerate_multiindices(1, 2) == [(0,), (1,), (2,)]

    def test_2d_degree_one(self):
        assert enumerate_multiindices(2, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_2d_degree_two_count(self):
        out = enumerate_multiindices(2, 2)
        assert len(out) == 6
        assert out == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    @pytest.mark.parametrize("n,d", [(1, 5), (2, 4), (3, 3), (4, 2)])
    def test_count_matches_binomial(self, n, d):
        out = enumerate_multiindices(n, d)
        assert len(out) == math.comb(n + d, d)
        assert len(set(out)) == len(out)
        degs = [sum(a) for a in out]
        assert degs == sorted(degs)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            enumerate_multiindices(0, 2)
        with pytest.raises(ValueError):
            enumerate_multiindices(1, -1)


class TestMomentSequence:
    def test_exact_index_cover_enforced(self):
        with pytest.raises(ValueError, match="index set"):
            MomentSequence(1, 2, {(0,): 1.0, (1,): 0.0})
        with pytest.raises(ValueError, match="index set"):
            MomentSequence(1, 1, {(0,): 1.0, (1,): 0.0, (2,): 1.0})

    def test_bool_key_rejected(self):
        # True == 1 and hashes alike, so the index-set check alone accepts it
        with pytest.raises(ValueError, match="invalid entry True"):
            MomentSequence(1, 1, {(True,): 2.0, (0,): 1.0})
        with pytest.raises(ValueError, match="invalid entry False"):
            MomentSequence(2, 1, {(0, 0): 1.0, (1, 0): 0.0, (False, 1): 0.0})

    def test_float_key_rejected(self):
        with pytest.raises(ValueError, match="invalid entry 1.0"):
            MomentSequence(1, 1, {(0,): 1.0, (1.0,): 2.0})

    def test_keys_are_the_enumerated_int_tuples(self):
        class Alpha(tuple):
            pass

        s = MomentSequence(1, 1, {Alpha((1,)): 2.0, (0,): 1.0})
        assert list(s.values) == [(0,), (1,)]
        assert all(type(alpha) is tuple for alpha in s.values)
        assert s[(1,)] == 2.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match=r"moment \(1,\) is not finite"):
            MomentSequence(1, 2, {(0,): 1.0, (1,): bad, (2,): 2.0})
        with pytest.raises(ValueError, match=r"moment \(1,\) is not finite"):
            MomentSequence.of_1d([1.0, bad, 2.0])

    def test_roundtrip_1d(self):
        s = MomentSequence.of_1d([1, 2, 3])
        assert s.as_1d_tuple() == (1.0, 2.0, 3.0)
        assert s[(1,)] == 2.0

    def test_truncate(self):
        s = MomentSequence.of_1d([1, 2, 3, 4])
        assert s.truncate(2).as_1d_tuple() == (1.0, 2.0, 3.0)


class TestRieszApply:
    def test_constant_picks_s0(self):
        s = MomentSequence.of_1d([7.0, 1.0, 2.0])
        assert riesz_apply(s, {(0,): 1.0}) == 7.0

    def test_picks_s2(self):
        s = MomentSequence.of_1d([1, 0, 1])
        assert riesz_apply(s, {(2,): 1.0}) == 1.0

    def test_annihilating_polynomial(self):
        # (x^2 - 1)^2 against the two-atom measure (1/2) delta_{-1} + (1/2) delta_{+1}
        s = MomentSequence.of_1d([1, 0, 1, 0, 1])
        p = {(4,): 1.0, (2,): -2.0, (0,): 1.0}
        assert riesz_apply(s, p) == 0.0

    def test_degree_overflow_names_index(self):
        s = MomentSequence.of_1d([1, 0, 1])
        with pytest.raises(ValueError, match=r"\(3,\)"):
            riesz_apply(s, {(3,): 1.0})

    def test_bilinearity(self):
        rng = np.random.default_rng(7)
        idx = enumerate_multiindices(2, 3)
        for _ in range(25):
            v1 = {a: rng.normal() for a in idx}
            v2 = {a: rng.normal() for a in idx}
            s1 = MomentSequence(2, 3, v1)
            s2 = MomentSequence(2, 3, v2)
            p1 = {a: rng.normal() for a in idx}
            p2 = {a: rng.normal() for a in idx}
            c1, c2 = rng.normal(), rng.normal()
            s12 = linear_combination([c1, c2], [s1, s2])
            lhs = riesz_apply(s12, p1)
            rhs = c1 * riesz_apply(s1, p1) + c2 * riesz_apply(s2, p1)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))
            p12 = {a: c1 * p1[a] + c2 * p2[a] for a in idx}
            lhs = riesz_apply(s1, p12)
            rhs = c1 * riesz_apply(s1, p1) + c2 * riesz_apply(s1, p2)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


class TestAtomicOracle:
    def test_dirac_at_zero(self):
        mu = AtomicMeasure(1, (((0.0,), 1.0),))
        assert oracle_moments_atomic(mu, 2).as_1d_tuple() == (1.0, 0.0, 0.0)

    def test_two_symmetric_atoms(self):
        mu = AtomicMeasure(1, (((-1.0,), 0.5), ((1.0,), 0.5)))
        assert oracle_moments_atomic(mu, 4).as_1d_tuple() == (1.0, 0.0, 1.0, 0.0, 1.0)

    def test_2d_atom(self):
        mu = AtomicMeasure(2, (((1.0, 2.0), 1.0),))
        s = oracle_moments_atomic(mu, 2)
        assert s[(0, 0)] == 1.0
        assert s[(1, 0)] == 1.0
        assert s[(0, 1)] == 2.0
        assert s[(2, 0)] == 1.0
        assert s[(1, 1)] == 2.0
        assert s[(0, 2)] == 4.0

    def test_weight_linearity_and_permutation(self):
        rng = np.random.default_rng(3)
        pts = [tuple(rng.uniform(-2, 2, size=2)) for _ in range(4)]
        w = rng.uniform(0.1, 1.0, size=4)
        mu = AtomicMeasure(2, tuple((p, wi) for p, wi in zip(pts, w)))
        mu2 = AtomicMeasure(2, tuple((p, 2 * wi) for p, wi in zip(pts, w)))
        mu_perm = AtomicMeasure(2, tuple((p, wi) for p, wi in zip(pts[::-1], w[::-1])))
        s, s2, sp = (oracle_moments_atomic(m, 3) for m in (mu, mu2, mu_perm))
        for a in s.indices():
            assert s2[a] == pytest.approx(2 * s[a], rel=1e-14, abs=1e-14)
            assert sp[a] == pytest.approx(s[a], rel=1e-13, abs=1e-13)

    def test_atom_merge_adds_weights(self):
        mu = AtomicMeasure(1, (((1.0,), 0.25), ((1.0 + 1e-12,), 0.75)))
        assert len(mu.atoms) == 1
        assert mu.atoms[0][1] == 1.0

    def test_signed_flag(self):
        assert AtomicMeasure(1, (((0.0,), -1.0),)).signed
        assert not AtomicMeasure(1, (((0.0,), 1.0),)).signed


class TestGaussianOracle:
    def test_standard_normal(self):
        g = GaussianMixture(1, 1.0, (((0.0,), 1.0, 0.5),))  # variance 2*nu*t = 1
        s = oracle_moments_gaussian_mixture(g, 4)
        assert s.as_1d_tuple() == (1.0, 0.0, 1.0, 0.0, 3.0)

    def test_time_zero_is_dirac(self):
        g = GaussianMixture(1, 1.0, (((1.5,), 2.0, 0.0),))
        mu = AtomicMeasure(1, (((1.5,), 2.0),))
        assert (
            oracle_moments_gaussian_mixture(g, 3).as_1d_tuple()
            == oracle_moments_atomic(mu, 3).as_1d_tuple()
        )

    def test_variance_two(self):
        g = GaussianMixture(1, 1.0, (((0.0,), 1.0, 1.0),))
        s = oracle_moments_gaussian_mixture(g, 4)
        assert s[(2,)] == 2.0
        assert s[(4,)] == 12.0  # 3 * sigma^4

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GaussianMixture(1, 0.0, (((0.0,), 1.0, 1.0),))
        with pytest.raises(ValueError):
            GaussianMixture(1, 1.0, (((0.0,), 1.0, -0.1),))


class TestQuadratureOracle:
    def test_standard_gaussian(self):
        def density(x):
            return math.exp(-x[0] ** 2 / 2) / math.sqrt(2 * math.pi)

        s = oracle_moments_quadrature(density, [(-10, 10)], 2, 1e-10)
        for got, want in zip(s.as_1d_tuple(), (1.0, 0.0, 1.0)):
            assert got == pytest.approx(want, abs=1e-9)

    def test_uniform_density(self):
        s = oracle_moments_quadrature(lambda x: 0.5, [(-1, 1)], 2, 1e-11)
        assert s[(0,)] == pytest.approx(1.0, abs=1e-11)
        assert s[(1,)] == pytest.approx(0.0, abs=1e-11)
        assert s[(2,)] == pytest.approx(1.0 / 3.0, abs=1e-11)

    def test_zero_density(self):
        s = oracle_moments_quadrature(lambda x: 0.0, [(-1, 1)], 3, 1e-12)
        assert all(v == 0.0 for v in s.as_1d_tuple())

    def test_agrees_with_closed_form_1d(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            comps = tuple(
                ((rng.uniform(-1, 1),), rng.uniform(0.2, 1.0), rng.uniform(0.1, 0.6))
                for _ in range(2)
            )
            g = GaussianMixture(1, 1.0, comps)

            def density(x, g=g):
                return sum(
                    w
                    * math.exp(-((x[0] - c[0]) ** 2) / (4 * g.nu * t))
                    / math.sqrt(4 * math.pi * g.nu * t)
                    for c, w, t in g.components
                )

            sq = oracle_moments_quadrature(density, [(-14, 14)], 4, 1e-9)
            sc = oracle_moments_gaussian_mixture(g, 4)
            for a in sq.indices():
                assert sq[a] == pytest.approx(sc[a], abs=1e-8)

    def test_agrees_with_closed_form_2d(self):
        g = GaussianMixture(2, 1.0, (((0.3, -0.2), 1.0, 0.25),))

        def density(x):
            r2 = (x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2
            return math.exp(-r2 / 1.0) / (math.pi * 1.0)

        sq = oracle_moments_quadrature(density, [(-8, 8), (-8, 8)], 2, 1e-7)
        sc = oracle_moments_gaussian_mixture(g, 2)
        for a in sq.indices():
            assert sq[a] == pytest.approx(sc[a], abs=1e-6)

    def test_agrees_with_closed_form_3d(self):
        g = GaussianMixture(3, 1.0, (((0.2, -0.1, 0.3), 1.0, 0.2),))
        var = 2 * g.nu * 0.2

        def density(x):
            r2 = sum((xi - ci) ** 2 for xi, ci in zip(x, (0.2, -0.1, 0.3)))
            return math.exp(-r2 / (2 * var)) / (2 * math.pi * var) ** 1.5

        sq = oracle_moments_quadrature(density, [(-3.5, 3.5)] * 3, 1, 1e-5)
        sc = oracle_moments_gaussian_mixture(g, 1)
        for a in sq.indices():
            assert sq[a] == pytest.approx(sc[a], abs=1e-5)

    def test_n4_rejected(self):
        with pytest.raises(ValueError, match="n <= 3"):
            oracle_moments_quadrature(lambda x: 0.0, [(-1, 1)] * 4, 1, 1e-6)

    def test_nonconvergence_reports_estimate(self):
        # tolerance below roundoff on an O(1) integral cannot be achieved
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(QuadratureError) as info:
                oracle_moments_quadrature(lambda x: 1.0, [(-1, 1)], 0, 1e-30)
        assert info.value.achieved > 1e-30


class TestStieltjesSequence:
    def test_degree_zero(self):
        assert stieltjes_sequence(0).as_1d_tuple() == (1.0,)

    def test_degree_two(self):
        s = stieltjes_sequence(2)
        assert s.as_1d_tuple() == (1.0, math.exp(0.5), math.exp(2.0))

    def test_fourth_entry(self):
        assert stieltjes_sequence(4)[(4,)] == math.exp(8.0)
