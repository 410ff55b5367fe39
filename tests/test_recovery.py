"""Tests for odd augmentation, kernel roots, weights, and full recovery."""

import math

import numpy as np
import pytest

from momentflow import (
    AtomicMeasure,
    ComplexRootsError,
    MomentSequence,
    NonPositiveWeightError,
    NotInteriorError,
    RecoveryError,
    atoms_from_kernel,
    augment_odd,
    evaluate_flow,
    heat_flow,
    oracle_moments_atomic,
    oracle_moments_gaussian_mixture,
    oracle_moments_quadrature,
    recover_gaussian_mixture,
    weights_from_atoms,
)
from momentflow.core import gaussian_moment_1d


class TestAugmentOdd:
    def test_degree_three_completion(self):
        # minimal PSD completion of (1,0,1,0,.) is s_4 = 1; returns 2
        out = augment_odd(MomentSequence.of_1d([1, 0, 1, 0]))
        assert out.degree == 4
        assert out[(4,)] == 2.0

    def test_degree_one_completion(self):
        out = augment_odd(MomentSequence.of_1d([1, 0]))
        assert out.degree == 2
        assert out[(2,)] == 1.0

    def test_identity_on_even(self):
        s = MomentSequence.of_1d([1, 0, 2])
        assert augment_odd(s) is s

    def test_requires_pd_even_part(self):
        with pytest.raises(ValueError, match="positive definite"):
            augment_odd(MomentSequence.of_1d([1, 0, 1, 0, 1, 0]))

    def test_extended_hankel_is_pd(self):
        from momentflow import build_hankel, classify_psd
        from momentflow.hankel import POSITIVE_DEFINITE

        rng = np.random.default_rng(41)
        for _ in range(10):
            mu = AtomicMeasure(
                1, tuple(((rng.uniform(-2, 2),), rng.uniform(0.2, 1)) for _ in range(3))
            )
            s = evaluate_flow(heat_flow(oracle_moments_atomic(mu, 5), 1.0), 0.5)
            out = augment_odd(s)
            rep = classify_psd(build_hankel(out, out.degree // 2))
            assert rep.status == POSITIVE_DEFINITE


class TestAtomsFromKernel:
    def test_symmetric_pair(self):
        roots = atoms_from_kernel(np.array([-1.0, 0.0, 1.0]))
        assert np.allclose(roots, [-1.0, 1.0])

    def test_single_zero(self):
        assert np.allclose(atoms_from_kernel(np.array([0.0, 1.0])), [0.0])

    def test_complex_roots_rejected(self):
        with pytest.raises(ComplexRootsError, match="complex kernel roots"):
            atoms_from_kernel(np.array([1.0, 0.0, 1.0]))  # x^2 + 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            atoms_from_kernel(np.zeros(3))


class TestWeightsFromAtoms:
    def test_symmetric_half_half(self):
        s_b = MomentSequence.of_1d([1, 0, 1, 0, 1])
        w = weights_from_atoms(np.array([-1.0, 1.0]), s_b)
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_single_atom(self):
        s_b = MomentSequence.of_1d([1, 0, 0, 0, 0])
        assert np.allclose(weights_from_atoms(np.array([0.0]), s_b), [1.0])

    def test_two_by_two_solve(self):
        # atoms {0, 2} with s_0 = 1, s_1 = 1 give weights (1/2, 1/2)
        mu = AtomicMeasure(1, (((0.0,), 0.5), ((2.0,), 0.5)))
        s_b = oracle_moments_atomic(mu, 4)
        w = weights_from_atoms(np.array([0.0, 2.0]), s_b)
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_signed_measure_rejected(self):
        s_b = MomentSequence.of_1d([1.0, 2.0, 4.5, 10.0, 23.0])
        with pytest.raises(NonPositiveWeightError, match="not a positive"):
            weights_from_atoms(np.array([-1.0, 1.0]), s_b)


class TestRecoverGaussianMixture:
    def test_two_atom_worked_instance(self):
        res = recover_gaussian_mixture(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        assert res.delta == pytest.approx(1.0, abs=1e-9)
        xs = [x for x, _ in res.atoms]
        ws = [w for _, w in res.atoms]
        assert np.allclose(xs, [-1.0, 1.0], atol=1e-9)
        assert np.allclose(ws, [0.5, 0.5], atol=1e-9)
        assert res.residual <= 1e-10
        # forward check of the top moment: s_4 = sum c (x^4 + 12 x^2 + 12)
        s4 = sum(w * (x**4 + 12 * x**2 + 12) for x, w in res.atoms)
        assert s4 == pytest.approx(25.0, rel=1e-9)

    def test_gaussian_instance(self):
        res = recover_gaussian_mixture(MomentSequence.of_1d([1, 0, 1, 0, 3]), 1.0)
        assert res.delta == pytest.approx(0.5, abs=1e-6)
        assert len(res.atoms) == 1
        x, w = res.atoms[0]
        assert x == pytest.approx(0.0, abs=1e-6)
        assert w == pytest.approx(1.0, abs=1e-6)

    def test_singular_input_rejected(self):
        with pytest.raises(NotInteriorError, match="not interior"):
            recover_gaussian_mixture(MomentSequence.of_1d([1, 0, 1, 0, 1]), 1.0)

    def test_boundary_is_classified_once(self, monkeypatch):
        # the boundary atoms come with the distance report: recovery runs no
        # Gauss rule of its own
        from momentflow import boundary, hankel

        rules = []

        def counting(rec):
            rules.append(rec)
            return hankel.gauss_rule(rec)

        monkeypatch.setattr(boundary, "gauss_rule", counting)
        res = recover_gaussian_mixture(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        assert res.delta == pytest.approx(1.0, abs=1e-9)
        assert len(rules) == 1

    def test_zero_sequence_rejected(self):
        with pytest.raises(RecoveryError, match="zero sequence"):
            recover_gaussian_mixture(MomentSequence.of_1d([0, 0, 0, 0, 0]), 1.0)

    def test_odd_degree_input(self):
        # odd input is augmented first; the augmentation choice selects one of
        # many representing mixtures, so only representation is asserted
        mu = AtomicMeasure(1, (((-0.5,), 0.6), ((1.2,), 0.4)))
        s = evaluate_flow(heat_flow(oracle_moments_atomic(mu, 5), 1.0), 0.7)
        res = recover_gaussian_mixture(s, 1.0)
        assert res.residual <= 1e-6
        assert res.delta > 0
        assert len(res.atoms) <= 3  # k <= d + 1 at the augmented order
        m = oracle_moments_gaussian_mixture(res.mixture, 5)
        for alpha in s.indices():
            assert m[alpha] == pytest.approx(s[alpha], rel=1e-8, abs=1e-8)

    def test_round_trip_random(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            atoms = []
            while len(atoms) < k:
                x = rng.uniform(-2, 2)
                if all(abs(x - a) >= 0.3 for a in atoms):
                    atoms.append(x)
            atoms = sorted(atoms)
            weights = rng.uniform(0.2, 1.0, size=k)
            t0 = rng.uniform(0.1, 2.0)
            mu = AtomicMeasure(1, tuple(((a,), w) for a, w in zip(atoms, weights)))
            s = evaluate_flow(heat_flow(oracle_moments_atomic(mu, 2 * k), 1.0), t0)
            res = recover_gaussian_mixture(s, 1.0)
            assert res.delta == pytest.approx(t0, abs=1e-6)
            got_x = [x for x, _ in res.atoms]
            got_w = [w for _, w in res.atoms]
            assert np.allclose(got_x, atoms, atol=1e-6)
            assert np.allclose(got_w, weights, atol=1e-6)
            assert res.residual <= 1e-6
            assert len(res.atoms) <= s.degree // 2 + 1

    def test_residual_vs_quadrature_oracle(self):
        # independent density-level check of one recovered mixture
        res = recover_gaussian_mixture(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        g = res.mixture

        def density(x):
            return sum(
                w * math.exp(-((x[0] - c[0]) ** 2) / (4 * g.nu * t))
                / math.sqrt(4 * math.pi * g.nu * t)
                for c, w, t in g.components
            )

        sq = oracle_moments_quadrature(density, [(-16, 16)], 4, 1e-8)
        for alpha, want in zip(sq.indices(), (1, 0, 3, 0, 25)):
            assert sq[alpha] == pytest.approx(want, abs=1e-7)

    def test_forward_oracle_matches_input(self):
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        res = recover_gaussian_mixture(s, 1.0)
        m = oracle_moments_gaussian_mixture(res.mixture, 4)
        for alpha in s.indices():
            assert m[alpha] == pytest.approx(s[alpha], rel=1e-9, abs=1e-9)


def _scalar_moments_and_jacobian(xs, ws, delta, nu, degree):
    """Loop reference: per-entry Gaussian moments from the binomial expansion."""
    k, var = xs.size, 2.0 * nu * delta
    G = np.array([[gaussian_moment_1d(x, var, j) for x in xs] for j in range(degree + 1)])
    J = np.zeros((degree + 1, 2 * k + 1))
    for j in range(degree + 1):
        if j >= 1:
            J[j, :k] = ws * j * G[j - 1]
        J[j, k : 2 * k] = G[j]
        if j >= 2:
            J[j, 2 * k] = nu * j * (j - 1) * float(G[j - 2] @ ws)
    return G @ ws, J


class TestMixtureMomentsAndJacobian:
    def test_recurrence_matches_scalar_expansion(self):
        from momentflow.recovery import _mixture_moments_and_jacobian

        rng = np.random.default_rng(61)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            degree = int(rng.integers(0, 2 * k + 2))
            xs = rng.uniform(-2, 2, size=k)
            ws = rng.uniform(0.2, 1.0, size=k)
            delta, nu = rng.uniform(0.05, 2.0), rng.uniform(0.5, 2.0)
            m, J = _mixture_moments_and_jacobian(xs, ws, delta, nu, degree)
            m_ref, J_ref = _scalar_moments_and_jacobian(xs, ws, delta, nu, degree)
            # the summation orders differ; the entries at |x_i| bound every
            # term of both sums, so they scale the rounding tolerance
            m_abs, J_abs = _scalar_moments_and_jacobian(np.abs(xs), ws, delta, nu, degree)
            assert np.all(np.abs(m - m_ref) <= 1e-13 * (1.0 + m_abs))
            assert np.all(np.abs(J - J_ref) <= 1e-13 * (1.0 + J_abs))

    def test_exact_residuals_match_rational_arithmetic(self):
        from fractions import Fraction

        from momentflow.recovery import _exact_residuals

        rng = np.random.default_rng(63)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            xs = [float(x) for x in rng.uniform(-2, 2, size=k)]
            ws = [float(w) for w in rng.uniform(0.2, 1.0, size=k)]
            delta, nu = float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.5, 2.0))
            target = [float(v) for v in rng.normal(size=2 * k + 1)]
            var = 2 * Fraction(nu) * Fraction(delta)
            want = []
            for j, t in enumerate(target):
                m = Fraction(0)
                for x, w in zip(xs, ws):
                    # E[(x + Z)^j] = sum_i C(j, 2i) x^(j-2i) var^i (2i-1)!!
                    m += Fraction(w) * sum(
                        math.comb(j, 2 * i) * Fraction(x) ** (j - 2 * i) * var**i
                        * math.prod(range(1, 2 * i, 2))
                        for i in range(j // 2 + 1)
                    )
                want.append(float(Fraction(t) - m))
            assert _exact_residuals(xs, ws, delta, nu, target) == want

    def test_refine_keeps_the_best_iterate_beyond_the_float_range(self):
        from momentflow.recovery import _refine

        # x**2 = 1e400 overflows a float; Gauss-Newton keeps the start
        assert _refine([1e200], [1.0], 0.5, 1.0, [1.0, 0.0, 1.0]) == ([1e200], [1.0], 0.5)
        start = ([-1.0, 1.0], [0.5, 0.5], 1.0)
        assert _refine(*start[:3], 1.0, [1, 0, 3, 0, 25])[2] == pytest.approx(1.0, abs=1e-12)
