"""Tests for Hankel construction, PSD classification, and kernel extraction."""

import numpy as np
import pytest

from momentflow import (
    AtomicMeasure,
    HankelMatrix,
    MomentSequence,
    build_hankel,
    classify_psd,
    evaluate_flow,
    heat_flow,
    kernel_polynomial,
    oracle_moments_atomic,
)
from momentflow.hankel import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    PSD_SINGULAR,
    Recurrence,
    chebyshev,
    gauss_rule,
    monic_polynomial,
)


class TestBuildHankel:
    def test_identity_case(self):
        H = build_hankel(MomentSequence.of_1d([1, 0, 1]), 1)
        assert np.array_equal(H.entries, np.eye(2))

    def test_two_atom_case(self):
        H = build_hankel(MomentSequence.of_1d([1, 0, 1, 0, 1]), 2)
        assert np.array_equal(H.entries, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])

    def test_evolved_gaussian_case(self):
        # moments of the centered Gaussian of variance 2 t0, t0 = 1
        H = build_hankel(MomentSequence.of_1d([1, 0, 2, 0, 12]), 2)
        assert np.array_equal(H.entries, [[1, 0, 2], [0, 2, 0], [2, 0, 12]])

    def test_insufficient_degree(self):
        with pytest.raises(ValueError, match="insufficient"):
            build_hankel(MomentSequence.of_1d([1, 0, 1]), 2)

    def test_requires_1d(self):
        from momentflow import enumerate_multiindices

        s = MomentSequence(2, 2, dict.fromkeys(enumerate_multiindices(2, 2), 1.0))
        with pytest.raises(ValueError, match="1-D"):
            build_hankel(s, 1)


class TestClassifyPsd:
    def test_identity_pd(self):
        rep = classify_psd(HankelMatrix(1, np.eye(2)))
        assert rep.status == POSITIVE_DEFINITE
        assert rep.min_eigenvalue == pytest.approx(1.0)
        assert rep.kernel_basis == ()

    def test_singular_with_kernel(self):
        rep = classify_psd(HankelMatrix(2, np.array([[1.0, 0, 1], [0, 1, 0], [1, 0, 1]])))
        assert rep.status == PSD_SINGULAR
        assert len(rep.kernel_basis) == 1
        v = rep.kernel_basis[0]
        want = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
        assert np.allclose(np.abs(v), np.abs(want), atol=1e-12)

    def test_indefinite(self):
        rep = classify_psd(HankelMatrix(1, np.diag([1.0, -1.0])))
        assert rep.status == INDEFINITE
        assert rep.kernel_basis == ()

    def test_scaling_invariance_of_status(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            mu = AtomicMeasure(
                1, tuple(((rng.uniform(-3, 3),), rng.uniform(0.1, 2)) for _ in range(2))
            )
            s = oracle_moments_atomic(mu, 6)
            for lam in (1e-3, 1.0, 1e3):
                scaled = MomentSequence.of_1d([lam * v for v in s.as_1d_tuple()])
                a = classify_psd(build_hankel(s, 3)).status
                b = classify_psd(build_hankel(scaled, 3)).status
                assert a == b


class TestKernelPolynomial:
    def test_two_atom_kernel(self):
        rep = classify_psd(HankelMatrix(2, np.array([[1.0, 0, 1], [0, 1, 0], [1, 0, 1]])))
        f = kernel_polynomial(rep)
        assert np.allclose(f, [-1.0, 0.0, 1.0], atol=1e-12)  # x^2 - 1

    def test_dirac_boundary_kernel(self):
        rep = classify_psd(build_hankel(MomentSequence.of_1d([1, 0, 0, 0, 0]), 2))
        assert rep.status == PSD_SINGULAR
        assert rep.degenerate  # rank-1 Hankel has a 2-dim kernel
        f = kernel_polynomial(rep)
        assert np.allclose(f, [0.0, 1.0, 0.0], atol=1e-12)  # f(x) = x

    def test_rejects_nonsingular(self):
        with pytest.raises(ValueError, match="psd_singular"):
            kernel_polynomial(classify_psd(HankelMatrix(1, np.eye(2))))
        with pytest.raises(ValueError, match="psd_singular"):
            kernel_polynomial(classify_psd(HankelMatrix(1, np.diag([1.0, -1.0]))))


class TestAtomicInvariants:
    def test_atoms_are_kernel_roots(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            points = []
            while len(points) < k:
                x = rng.uniform(-3, 3)
                if all(abs(x - p) > 0.4 for p in points):
                    points.append(x)
            mu = AtomicMeasure(
                1, tuple(((p,), rng.uniform(0.05, 2.0)) for p in points)
            )
            d_h = int(rng.integers(k, 5))
            s = oracle_moments_atomic(mu, 2 * d_h)
            rep = classify_psd(build_hankel(s, d_h))
            if k == d_h + 1:
                assert rep.status == POSITIVE_DEFINITE
                continue
            assert rep.status == PSD_SINGULAR
            f = kernel_polynomial(rep)
            for p in points:
                val = np.polyval(f[::-1], p)
                assert abs(val) <= 1e-7 * (1 + np.max(np.abs(f)))

    def test_heat_forward_invariance(self):
        # PSD at t = 0 stays PD for the sampled forward times
        rng = np.random.default_rng(35)
        for _ in range(10):
            mu = AtomicMeasure(
                1, tuple(((rng.uniform(-2, 2),), rng.uniform(0.1, 1)) for _ in range(2))
            )
            s = oracle_moments_atomic(mu, 6)
            assert classify_psd(build_hankel(s, 3)).status != INDEFINITE
            F = heat_flow(s, 1.0)
            for t in (0.1, 0.5, 1.0, 2.0):
                rep = classify_psd(build_hankel(evaluate_flow(F, t), 3))
                assert rep.status == POSITIVE_DEFINITE


class TestRecurrence:
    @staticmethod
    def _sequence(rng, k, degree):
        mu = AtomicMeasure(
            1, tuple(((rng.uniform(-2, 2),), rng.uniform(0.2, 1)) for _ in range(k))
        )
        return evaluate_flow(heat_flow(oracle_moments_atomic(mu, degree), 1.0), 0.3)

    def test_pivots_match_cholesky(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            order = int(rng.integers(1, 5))
            s = self._sequence(rng, int(rng.integers(1, 4)), 2 * order)
            H = build_hankel(s, order).entries
            want = np.diag(np.linalg.cholesky(H)) ** 2
            rec = chebyshev(s.as_1d_tuple(), order)
            assert len(rec.pivots) == order + 1 and len(rec.alpha) == order
            # sigma_kk cancels down from terms of the size of H[k, k]
            assert np.all(np.abs(np.array(rec.pivots) - want) <= 1e-12 * np.diag(H))
            assert np.allclose(rec.beta[1:], want[1:] / want[:-1], rtol=1e-10)

    def test_pass_stops_at_first_nonpositive_pivot(self):
        rec = chebyshev([1, 0, 1, 0, 1], 2)  # rank 2: sigma_22 = 0
        assert rec.pivots == (1.0, 1.0, 0.0)
        assert rec.alpha == (0.0, 0.0)
        rec = chebyshev([1, 0, 0, 0, 1], 2)  # sigma_11 = 0 stops the pass
        assert rec.pivots == (1.0, 0.0) and rec.alpha == (0.0,)
        assert chebyshev([-1, 0, 1], 1).pivots == (-1.0,)

    def test_gauss_rule_matches_jacobi_eigenvectors(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            order = int(rng.integers(1, 6))
            s = self._sequence(rng, order + 1, 2 * order)
            rec = chebyshev(s.as_1d_tuple(), order)
            nodes, weights = gauss_rule(rec)
            jacobi = (np.diag(rec.alpha) + np.diag(np.sqrt(rec.beta[1:order]), 1)
                      + np.diag(np.sqrt(rec.beta[1:order]), -1))
            w, v = np.linalg.eigh(jacobi)
            scale = 1.0 + np.max(np.abs(w))
            assert np.all(np.abs(np.array(nodes) - w) <= 1e-13 * scale)
            assert np.allclose(weights, rec.beta[0] * v[0] ** 2, rtol=1e-10, atol=1e-14)
            p = monic_polynomial(rec, order)
            for x in nodes:
                assert abs(np.polyval(p[::-1], x)) <= 1e-10 * scale**order

    def test_gauss_rule_of_an_atomic_measure_is_the_measure(self):
        rng = np.random.default_rng(75)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            points = sorted(rng.choice(np.linspace(-2, 2, 9), size=k, replace=False))
            weights = rng.uniform(0.2, 1.0, size=k)
            mu = AtomicMeasure(1, tuple(((p,), w) for p, w in zip(points, weights)))
            s = oracle_moments_atomic(mu, 2 * k)
            rec = chebyshev(s.as_1d_tuple(), k)
            assert abs(rec.pivots[-1]) <= 1e-10 * s[(2 * k,)]  # k atoms: rank k
            nodes, got = gauss_rule(Recurrence(rec.alpha, rec.beta[:k], rec.pivots[:k]))
            assert np.allclose(nodes, points, atol=1e-9)
            assert np.allclose(got, weights, atol=1e-9)
