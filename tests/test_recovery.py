"""Tests for odd augmentation, kernel roots, weights, and full recovery."""

import importlib.util
import inspect
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

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
from momentflow.core import compiled_kernel, gaussian_moment_1d

from helpers import fresh_kernels, hexed, kernel_against_loop, outcome
from oracles import mixture_moments


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
        # Gauss rule of its own, neither the loops' nor the rule kernel's
        from momentflow import boundary, hankel

        rules = []
        sighted = boundary.sighted_kernel

        def counting(rec):
            rules.append(rec)
            return hankel.gauss_rule(rec)

        def counting_kernel(kind, key):
            kernel = sighted(kind, key)
            if kind != "rule" or kernel is None:
                return kernel

            def rule(vals, order):
                before = len(rules)
                found = kernel(vals, order)
                if len(rules) == before:  # a hand-back counted the loops' Gauss rule
                    rules.append(found)
                return found
            return rule

        monkeypatch.setattr(boundary, "gauss_rule", counting)
        monkeypatch.setattr(boundary, "sighted_kernel", counting_kernel)
        res = recover_gaussian_mixture(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)
        assert res.delta == pytest.approx(1.0, abs=1e-9)
        assert len(rules) == 1

    def test_degenerate_kernel(self):
        # one Gaussian of variance 2: a single boundary atom for Hankel order 2
        res = recover_gaussian_mixture(MomentSequence.of_1d([1, 0, 2, 0, 12]), 1.0)
        assert res.degenerate_kernel
        assert len(res.atoms) == 1
        assert res.atoms[0] == pytest.approx((0.0, 1.0), abs=1e-12)
        assert res.delta == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spoil", [
        lambda xs, ws, u: (xs, [-ws[0], *ws[1:]], u),
        lambda xs, ws, u: (xs, ws, -u),
    ], ids=["negative-weight", "negative-delta"])
    def test_not_a_positive_mixture_rejected(self, monkeypatch, spoil):
        from momentflow import recovery

        refine = recovery._refine
        monkeypatch.setattr(recovery, "_refine",
                            lambda *args: (*spoil(*refine(*args)[:3]), 0.0, None))
        with pytest.raises(RecoveryError, match="not a positive mixture"):
            recover_gaussian_mixture(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)

    def test_residual_gate_rejects(self, monkeypatch):
        # the gate reads the polish's cost: a start 1% off in u, not
        # polished, costs more than 1e-6
        from momentflow import recovery

        refine = recovery._refine
        monkeypatch.setattr(recovery, "POLISH_MAX_STEPS", 0)
        monkeypatch.setattr(recovery, "_refine", lambda xs, ws, u, *rest:
                            refine(xs, ws, 1.01 * u, *rest))
        with pytest.raises(RecoveryError, match=r"residual .* > 1e-06"):
            recover_gaussian_mixture(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)

    @pytest.mark.parametrize("xs", [[math.inf, 1.0], [1e200, 1.0]],
                             ids=["non-finite", "overflow"])
    def test_a_cost_that_cannot_be_computed_is_rejected(self, monkeypatch, xs):
        # a non-finite start, or one whose exact moments leave the float range,
        # costs inf
        from momentflow import recovery

        refine = recovery._refine
        monkeypatch.setattr(recovery, "_refine", lambda _, *rest: refine(xs, *rest))
        with pytest.raises(RecoveryError, match=r"residual inf > 1e-06"):
            recover_gaussian_mixture(MomentSequence.of_1d([1, 0, 3, 0, 25]), 1.0)

    @pytest.mark.parametrize("e", [-600, -1000, -1070])
    def test_small_mass_is_rejected_as_at_unit_mass(self, e):
        # (1, 0, 1, 0, 29/3) fails at unit mass.  Times 2**e it was accepted as
        # one atom at 0 of three times its mass, with a residual of the size of
        # that mass; on its standardized sequence the same fit costs 0.67-0.73
        vals = (1, 0, 1, 0, 29 / 3)
        with pytest.raises(RecoveryError, match=r"recovery failed: residual 1\.817e-01"):
            recover_gaussian_mixture(MomentSequence.of_1d(vals), 1.0)
        s = MomentSequence.of_1d([math.ldexp(v, e) for v in vals])
        with pytest.raises(RecoveryError, match=r"standardized residual [67]\.\d{3}e-01 > 1e-06"):
            recover_gaussian_mixture(s, 1.0)

    def test_the_standardized_cost_does_not_change_with_units(self):
        # mass times 2**a and length times 2**c scale s_j and e_j by
        # 2**(a + c j), which the standardization undoes exactly
        from momentflow.recovery import _standardized_cost

        s = [1.3, 0.2, 2.1, -0.4, 9.5, 3.0, 60.25]
        e = (1e-7 * np.random.default_rng(5).standard_normal(len(s))).tolist()
        want = _standardized_cost(e, s)
        assert 1e-8 < want < 1e-6
        for a, c in ((-950, 3), (700, -40), (-300, 20), (900, 0)):
            def scaled(v):
                return [math.ldexp(x, a + c * j) for j, x in enumerate(v)]
            assert _standardized_cost(scaled(e), scaled(s)) == want
        assert _standardized_cost(None, s) == math.inf
        # a residual that leaves the float range on the standardized scale
        assert _standardized_cost([0.0, 0.0, 1e300], [1.0, 0.0, 2.0**-1000]) == math.inf

    @pytest.mark.parametrize("nu, tol", [
        (0.0, 1e-10), (-1.0, 1e-10), (math.nan, 1e-10), (math.inf, 1e-10),
        (1.0, 0.0), (1.0, -1e-10), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_invalid_rate_or_tolerance_is_refused_as_by_the_distance(self, nu, tol):
        # recovery reads the boundary without a distance report, and refuses
        # what heat_distance_1d refuses with its message
        from momentflow import heat_distance_1d

        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        with pytest.raises(ValueError) as want:
            heat_distance_1d(s, nu, tol)
        with pytest.raises(ValueError) as got:
            recover_gaussian_mixture(s, nu, tol)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("nu must" if tol == 1e-10 else "tol must")

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

    def test_residual_is_the_exact_relative_residual(self):
        # the digest's inputs, their odd-degree truncations and the
        # recover.json input, against the residual worked out in rationals
        from test_digest import _inputs

        inputs = _inputs()
        inputs += [s.truncate(s.degree - 1) for s in inputs]
        inputs.append(MomentSequence.of_1d(_workloads().RECOVER_GOLDEN_INPUT))
        checked = 0
        for s in inputs:
            try:
                res = recover_gaussian_mixture(s, 1.0)
            except RecoveryError:
                continue
            exact = _exact_cost(s.as_1d_tuple(), res.atoms, res.delta, 1.0)
            assert abs(Fraction(res.residual) - exact) <= Fraction(1e-15) * exact, s
            checked += 1
        assert checked > len(inputs) // 2

    def test_forward_oracle_matches_input(self):
        s = MomentSequence.of_1d([1, 0, 3, 0, 25])
        res = recover_gaussian_mixture(s, 1.0)
        m = oracle_moments_gaussian_mixture(res.mixture, 4)
        for alpha in s.indices():
            assert m[alpha] == pytest.approx(s[alpha], rel=1e-9, abs=1e-9)


def _workloads():
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _exact_cost(target, atoms, delta, nu):
    """``max_j |s_j - m_j| / (1 + |s_j|)`` in rationals, ``m_j`` the exact
    moments of ``sum_i w_i N(x_i, 2 nu delta)``."""
    xs, ws = zip(*atoms)
    moments = mixture_moments(xs, ws, 2 * Fraction(nu) * Fraction(delta), len(target) - 1)
    return max(abs(s - m) / (1 + abs(s)) for s, m in zip(map(Fraction, target), moments))


def _scalar_moments_and_jacobian(xs, ws, u, degree):
    """Loop reference: per-entry Gaussian moments of variance ``2u`` from the
    binomial expansion, and their Jacobian in ``(xs, ws, u)``."""
    k, var = xs.size, 2.0 * u
    G = np.array([[gaussian_moment_1d(x, var, j) for x in xs] for j in range(degree + 1)])
    J = np.zeros((degree + 1, 2 * k + 1))
    for j in range(degree + 1):
        if j >= 1:
            J[j, :k] = ws * j * G[j - 1]
        J[j, k : 2 * k] = G[j]
        if j >= 2:
            J[j, 2 * k] = j * (j - 1) * float(G[j - 2] @ ws)
    return G @ ws, J


class TestMixtureMomentsAndJacobian:
    def test_recurrence_matches_scalar_expansion(self):
        # the step against numpy's least-squares solve of the Jacobian from the
        # scalar expansion, each row weighted, on a consistent system
        from momentflow.recovery import _gauss_newton_step

        rng = np.random.default_rng(61)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            degree = int(rng.integers(2 * k, 2 * k + 2))
            xs = rng.uniform(-2, 2, size=k)
            ws = rng.uniform(0.2, 1.0, size=k)
            u = rng.uniform(0.05, 2.0) * rng.uniform(0.5, 2.0)  # nu delta
            m, J = _scalar_moments_and_jacobian(xs, ws, u, degree)
            inv = 1.0 / (1.0 + np.abs(m))
            A = J * inv[:, None]
            r = A @ (1e-3 * rng.standard_normal(2 * k + 1))
            start = np.concatenate([xs, ws, [u]])
            x, w, d = _gauss_newton_step(xs.tolist(), ws.tolist(), float(u), inv.tolist(),
                                         r.tolist())
            got = np.array([*x, *w, d]) - start
            want = np.linalg.lstsq(A, r, rcond=None)[0]
            # both solves are backward stable: they agree to within the
            # condition number times the rounding
            scale = 1e-13 * max(1.0, np.linalg.cond(A)) * np.max(np.abs(want))
            assert np.all(np.abs(got - want) <= scale)

    def test_exact_residuals_match_rational_arithmetic(self):
        from momentflow.recovery import _exact_residuals

        rng = np.random.default_rng(63)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            xs = [float(x) for x in rng.uniform(-2, 2, size=k)]
            ws = [float(w) for w in rng.uniform(0.2, 1.0, size=k)]
            u = float(rng.uniform(0.05, 2.0) * rng.uniform(0.5, 2.0))  # nu delta
            target = [float(v) for v in rng.normal(size=2 * k + 1)]
            moments = mixture_moments(xs, ws, 2 * Fraction(u), len(target) - 1)
            want = [float(Fraction(t) - m) for t, m in zip(target, moments)]
            assert _exact_residuals(xs, ws, u, target) == want

    def test_refine_keeps_the_best_iterate_beyond_the_float_range(self):
        from momentflow.recovery import _refine

        # x**2 = 1e400 overflows a float; Gauss-Newton keeps the start, whose
        # cost cannot be computed
        assert _refine([1e200], [1.0], 0.5, [1.0, 0.0, 1.0]) == (
            [1e200], [1.0], 0.5, math.inf, None)
        start = ([-1.0, 1.0], [0.5, 0.5], 1.0)
        u, cost = _refine(*start, [1, 0, 3, 0, 25])[2:4]
        assert u == pytest.approx(1.0, abs=1e-12) and cost < 1e-15

    @pytest.mark.parametrize("start, guard, body", [
        # a step leaves the float range: the exact residual's as_integer_ratio
        # raises on the non-finite iterate
        (([-0.5927007530154675, -0.1923429456561916],
          [1.141245644190191, 0.6329744755507469], 3.7632582574525144),
         "except (OverflowError, ValueError):", "return None"),
        # an iterate's exact moments overflow
        (([0.8848109756047702, 2.0171694081869473],
          [1.8382839941706104, 0.5549997001526928], 0.055020383104331376),
         "except (OverflowError, ValueError):", "return None"),
        # a full step would make u negative, so the step damps it
        (([1.5477264176418153, 2.0665311091502883],
          [0.8701145826201477, 0.5548876630712786], 2.1436838597619885),
         "while u + damp * x[-1] <= 0.0 and damp > 1e-6:", "damp *= 0.5"),
    ])
    def test_refine_exits_keep_the_best_start(self, start, guard, body):
        from momentflow import recovery

        # (guard, body) pairs of consecutive source lines that the call runs,
        # in the polish (its residual closure among them) and in its step
        sources = [inspect.getsourcelines(fn)
                   for fn in (recovery._refine, recovery._gauss_newton_step)]
        code = recovery._refine.__code__
        ran = set()
        # an outer line trace (coverage) still sees every line: each event goes
        # on to the trace function that this one replaces
        previous = sys.gettrace()

        def chained(outer):
            def local(frame, event, arg):
                nonlocal outer
                for lines, first in sources:
                    i = frame.f_lineno - first
                    if event == "line" and 0 < i < len(lines):
                        ran.add((lines[i - 1].strip(), lines[i].strip()))
                if outer is not None:
                    outer = outer(frame, event, arg)
                return local
            return local

        def tracer(frame, event, arg):
            outer = None if previous is None else previous(frame, event, arg)
            return chained(outer) if frame.f_code.co_filename == code.co_filename else outer

        sys.settrace(tracer)
        try:
            out = recovery._refine(*start, [1, 0, 3, 0, 25])
        finally:
            sys.settrace(previous)
        # each start is the best-cost iterate of its run
        assert out[:3] == start
        assert (guard, body) in ran

    @staticmethod
    def _polish_with_steps(monkeypatch, step, start, target):
        """``_refine`` with each Gauss-Newton step replaced by ``step`` of the
        iterate, which returns the next one; returns the polish's result and
        every ``(xs, ws, u)`` that it took a step from."""
        from momentflow import recovery

        seen = []

        def recorded(xs, ws, u, inv, r):
            seen.append((list(xs), list(ws), u))
            return step(xs, ws, u)

        monkeypatch.setattr(recovery, "sighted_kernel", lambda kind, key: None)
        monkeypatch.setattr(recovery, "_gauss_newton_step", recorded)
        return recovery._refine(*start, target), seen

    @staticmethod
    def _cost(xs, ws, u, target):
        """The polish's cost of an iterate, and its exact residuals."""
        from momentflow.recovery import _exact_residuals

        e = _exact_residuals(xs, ws, u, target)
        return max(abs(v * (1.0 / (1.0 + abs(t)))) for v, t in zip(e, target)), e

    def test_a_step_that_makes_delta_negative_is_damped(self, monkeypatch):
        # a step of -2 u is halved twice, to -u / 2, as 1 and 1/2 of it leave
        # u <= 0; halving is exact, so the iterates are the start's atoms and
        # weights with u / 2**i, each farther from the solution.
        # The polish steps from each of them and keeps the start.
        # (TestSolveKernel::test_a_step_below_delta_zero_is_handed_back_and_damped
        # damps the step's own solve.)
        from momentflow.recovery import POLISH_MAX_STEPS

        start, target = ([-1.0, 1.0], [0.5, 0.5], 0.75), [1, 0, 3, 0, 25]
        out, seen = self._polish_with_steps(
            monkeypatch, lambda xs, ws, u: (
                [x + 0.0 for x in xs], [w + 0.0 for w in ws], u + 0.25 * (-2.0 * u)),
            start, target)
        assert seen == [([-1.0, 1.0], [0.5, 0.5], 0.75 * 0.5**i)
                        for i in range(POLISH_MAX_STEPS)]
        assert out == (*start, *self._cost(*start, target))

    def test_a_non_finite_iterate_stops_the_polish(self, monkeypatch):
        # the first step sends an atom to inf: the polish stops there, takes
        # no second step, and returns its start with the start's cost
        start, target = ([-1.0, 1.0], [0.5, 0.5], 0.75), [1, 0, 3, 0, 25]
        out, seen = self._polish_with_steps(
            monkeypatch, lambda xs, ws, u: ([xs[0] + math.inf, xs[1]], ws, u),
            start, target)
        assert seen == [start]
        assert out == (*start, *self._cost(*start, target))


def _step_kernel(k, degree):
    return compiled_kernel("step", (k, degree))


def _iterate(rng, k, degree):
    """A random polish iterate ``(xs, ws, u)`` of ``k`` atoms, its weights
    ``inv`` and a small residual ``r`` of ``degree + 1`` moments."""
    xs = np.sort(rng.uniform(-2, 2, k)).tolist()
    ws = rng.uniform(0.2, 1, k).tolist()
    inv = rng.uniform(0.1, 1, degree + 1).tolist()
    return xs, ws, float(rng.uniform(0.05, 2)), inv, (
        1e-3 * rng.standard_normal(degree + 1)).tolist()


class TestSolveKernel:
    """The least-squares solve of the step kernel, at its shape: ``rows =
    degree + 1`` weighted moments and ``cols = 2k + 1`` unknowns."""

    # square shapes, and the taller ones of a polish with a degenerate kernel
    # (fewer atoms than the Hankel order) or of an odd-degree input
    SHAPES = [(n, n) for n in range(3, 18, 2)] + [
        (2, 1), (5, 1), (4, 3), (6, 3), (7, 3), (9, 3), (7, 5), (8, 5),
        (9, 5), (11, 5), (10, 7), (13, 7), (11, 9), (17, 9), (15, 11), (17, 13),
    ]

    @staticmethod
    def _kernel_outcome(k, degree, *args):
        """The step kernel's outcome, and whether it handed back to the loops."""
        from momentflow import recovery

        return kernel_against_loop(recovery, "_gauss_newton_step", _step_kernel(k, degree),
                                   *args)

    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_kernel_matches_loops_bit_for_bit(self, rows, cols):
        from momentflow.recovery import _gauss_newton_step

        k, degree = cols // 2, rows - 1
        rng = np.random.default_rng(100 * rows + cols)
        cases = []
        for _ in range(20):  # iterates, weights and residuals of widely spread scales
            xs = (rng.uniform(-2, 2, k) * 10.0 ** rng.uniform(-3, 1, k)).tolist()
            ws = (rng.uniform(0.01, 1, k) * 10.0 ** rng.uniform(-3, 3, k)).tolist()
            cases.append((xs, ws, float(rng.uniform(0.0, 2.0) * rng.uniform(0.2, 2)),
                          rng.uniform(0.01, 1, rows).tolist(),
                          (rng.standard_normal(rows) * 10.0 ** rng.uniform(-3, 3, rows)).tolist()))
        for _ in range(20):  # weighted as the polish weights them
            xs, ws, u, _, r = _iterate(rng, k, degree)
            m = [sum(w * gaussian_moment_1d(x, 2.0 * u, j) for x, w in zip(xs, ws))
                 for j in range(rows)]
            cases.append((xs, ws, u, [1.0 / (1.0 + abs(v)) for v in m], r))
        for case in cases:
            want = outcome(_gauss_newton_step, *case)
            assert isinstance(want, list)
            assert self._kernel_outcome(k, degree, *case)[0] == want

    @pytest.mark.parametrize("zero", [0, 2, 4])
    def test_zero_column_falls_back_to_the_loops(self, zero):
        # two atoms, seven moments: unknown 0 is x_0, 2 is w_0 and 4 is u.
        # Column 0 is zero at a zero weight w_0; column 2 where x_0, u and
        # inv[0] are zero; column 4, j (j - 1) m_{j-2}, where both weights are
        # zero.  Its unknown is 0, so the step leaves that coordinate as it is.
        from momentflow.recovery import _gauss_newton_step

        rng = np.random.default_rng(7 + zero)
        xs, ws, u, inv, r = _iterate(rng, 2, 6)
        if zero == 0:
            ws[0] = 0.0
        elif zero == 2:
            xs[0], u, inv[0] = 0.0, 0.0, 0.0
        else:
            ws = [0.0, 0.0]
        with fresh_kernels():
            got, entered = self._kernel_outcome(2, 6, xs, ws, u, inv, r)
        assert entered
        want = outcome(_gauss_newton_step, xs, ws, u, inv, r)
        start = hexed([xs, ws, u])
        assert got == want
        assert [*want[0], *want[1], want[2]][zero] == [*start[0], *start[1], start[2]][zero]

    def test_column_below_the_cutoff_is_dropped_alike(self):
        # two coincident atoms: the columns of x_1 and w_1 are those of x_0 and
        # w_0 up to rounding, so they reduce to below the cutoff and are
        # dropped without a hand-back; the step leaves x_1 and w_1 as they are
        from momentflow.recovery import _gauss_newton_step

        rng = np.random.default_rng(16)
        x = float(rng.uniform(-2, 2))
        xs, ws = [x, x], rng.uniform(0.2, 1, 2).tolist()
        inv, r = rng.uniform(0.1, 1, 9).tolist(), (1e-3 * rng.standard_normal(9)).tolist()
        with fresh_kernels():
            got, entered = self._kernel_outcome(2, 8, xs, ws, 0.5, inv, r)
        want = outcome(_gauss_newton_step, xs, ws, 0.5, inv, r)
        assert not entered and got == want
        start = hexed([xs, ws, 0.5])
        assert [want[0][1], want[1][1]] == [start[0][1], start[1][1]]
        assert want[0][0] != start[0][0] and want[1][0] != start[1][0] and want[2] != start[2]

    def test_tiny_column_is_dropped_like_a_zero_one(self):
        # one atom of weight 1e-160: the columns of x and of u have a norm
        # of about 1e-160, which overflows the reflector scale 1 / (alpha u_0);
        # at 1e-300 their squares underflow, so the norm is 0.  Either column
        # is dropped as a column of norm 0 is, and the step is not all zero
        from momentflow.recovery import _gauss_newton_step

        xs, inv, r = [0.7], [1.0] * 4, [1.0, 2.0, 3.0, 4.0]
        want = outcome(_gauss_newton_step, xs, [0.0], 0.5, inv, r)
        assert want[0] == [0.7.hex()] and want[2] == 0.5.hex() and want[1] != [0.0.hex()]
        for w0 in (1e-160, 1e-300):
            with fresh_kernels():
                got, entered = self._kernel_outcome(1, 3, xs, [w0], 0.5, inv, r)
            assert entered
            assert got == outcome(_gauss_newton_step, xs, [w0], 0.5, inv, r) == want

    @pytest.mark.parametrize("where, value", [
        ("J", math.inf), ("J", -math.inf), ("J", math.nan), ("inv", math.inf),
        ("r", math.nan), ("r", math.inf), ("J", 1e300), ("J", 5e-324),
    ])
    def test_non_finite_and_extreme_entries_agree(self, where, value):
        # "J" puts the value into the iterate that the Jacobian is built from:
        # an atom, a weight or u
        from momentflow.recovery import _gauss_newton_step

        rng = np.random.default_rng(13)
        for k, degree in ((2, 4), (3, 8)):
            for pos in range(3):
                xs, ws, u, inv, r = _iterate(rng, k, degree)
                i = (pos * 3) % (degree + 1)
                if where == "J" and pos < 2:
                    (xs, ws)[pos][pos % k] = value
                elif where == "J":
                    u = value
                elif where == "inv":
                    inv[i] = value
                else:
                    r[i] = value
                case = (xs, ws, u, inv, r)
                assert (self._kernel_outcome(k, degree, *case)[0]
                        == outcome(_gauss_newton_step, *case))

    @pytest.mark.parametrize("factor, left", [(-1.5, 0.25), (-3.0, 0.25), (-0.5, 0.5)])
    def test_a_step_below_delta_zero_is_handed_back_and_damped(self, factor, left):
        # r is the weighted Jacobian times a step of factor * u in u alone.
        # At -1.5 the solve sends u to about -u / 2: the kernel hands back and
        # the loops halve the step once, to -3/4 of u.  At -3 they halve it
        # twice, to -3/4 of u again.  At -0.5 u stays positive, and the kernel
        # takes the full step itself.
        from momentflow.recovery import _gauss_newton_step

        xs, ws, u = [-1.0, 1.0], [0.5, 0.5], 0.75
        m, J = _scalar_moments_and_jacobian(np.array(xs), np.array(ws), u, 4)
        inv = 1.0 / (1.0 + np.abs(m))
        r = ((J * inv[:, None]) @ np.array([0.0, 0.0, 0.0, 0.0, factor * u])).tolist()
        case = (xs, ws, u, inv.tolist(), r)
        with fresh_kernels():
            got, entered = self._kernel_outcome(2, 4, *case)
        want = outcome(_gauss_newton_step, *case)
        assert entered == (factor < -1.0) and got == want
        x, w, d = _gauss_newton_step(*case)
        assert d == pytest.approx(left * u, rel=1e-9)
        assert x == pytest.approx(xs, abs=1e-9) and w == pytest.approx(ws, abs=1e-9)

    def test_each_shape_compiles_on_its_second_polish(self, monkeypatch):
        # the step, and with it the residual of the polish
        from momentflow.kernels import KINDS

        built = []
        for kind in ("residual", "step"):
            namespace, source = KINDS[kind]
            monkeypatch.setitem(KINDS, kind, (namespace, lambda *key, kind=kind, source=source:
                                              built.append((kind, key)) or source(*key)))
        two = MomentSequence.of_1d([1, 0, 3, 0, 25])  # 2 atoms: 5 x 5
        one = MomentSequence.of_1d([1, 0, 2, 0, 12])  # a degenerate kernel: 5 x 3
        with fresh_kernels() as kernels:
            first = [repr(recover_gaussian_mixture(s, 1.0)) for s in (two, one)]
            assert built == []
            second = [repr(recover_gaussian_mixture(s, 1.0)) for s in (two, one)]
            assert built == [
                ("residual", (2, 4)), ("step", (2, 4)), ("residual", (1, 4)), ("step", (1, 4)),
            ]
            assert {key for key in kernels if key[0] not in ("search", "rule")} == set(built)
        # the loops (first polish of a shape) and the kernels agree bit for bit
        assert first == second


class TestPolishKernels:
    # every (k, degree) of a polish, degree 2k .. 2k + 2, and the taller
    # shapes of a degenerate kernel (fewer atoms than the Hankel order)
    SHAPES = [(k, d) for k in range(1, 9) for d in range(2 * k, 2 * k + 3)] + [
        (1, 5), (1, 6), (2, 7), (2, 8), (3, 10), (4, 12), (5, 14), (6, 15), (6, 16),
    ]

    @staticmethod
    def _kernels(k, degree):
        return compiled_kernel("residual", (k, degree)), compiled_kernel("step", (k, degree))

    @staticmethod
    def _agree(residual, step, xs, ws, u, target, r):
        """Both kernels against their loops, the step's equations weighted as
        the polish weights them; returns the loops' outcomes."""
        from momentflow.recovery import _exact_residuals, _gauss_newton_step

        inv = [1.0 / (1.0 + abs(v)) for v in target]
        want = (outcome(_exact_residuals, xs, ws, u, target),
                outcome(_gauss_newton_step, xs, ws, u, inv, r))
        got = (outcome(residual, xs, ws, u, target),
               outcome(step, xs, ws, u, inv, r))
        assert got == want
        return want

    @pytest.mark.parametrize("k, degree", SHAPES)
    def test_kernels_match_loops_bit_for_bit(self, k, degree):
        rng = np.random.default_rng(100 * k + degree)
        with fresh_kernels():
            kernels = self._kernels(k, degree)
            for case in range(20):
                xs = (rng.uniform(-2, 2, k) * 10.0 ** rng.uniform(-3, 1, k)).tolist()
                ws = rng.uniform(0.01, 2, k).tolist()
                u = 0.0 if case == 0 else float(rng.uniform(0.0, 4.0))
                target = (rng.standard_normal(degree + 1)
                          * 10.0 ** rng.uniform(-3, 9, degree + 1)).tolist()
                r = (1e-3 * rng.standard_normal(degree + 1)).tolist()
                want = self._agree(*kernels, xs, ws, u, target, r)
                assert all(isinstance(w, list) for w in want)

    @pytest.mark.parametrize("where, value", [
        ("x", 1e200), ("x", -1e160), ("w", 1e300), ("delta", 1e300), ("x", math.inf),
        ("x", math.nan), ("w", -math.inf), ("delta", math.nan), ("delta", math.inf),
    ])
    def test_extreme_and_non_finite_inputs_agree(self, where, value):
        # "delta" puts the value into the width u = nu delta
        rng = np.random.default_rng(17)
        outcomes = []
        with fresh_kernels():
            for k, degree in ((2, 4), (3, 7), (5, 10)):
                kernels = self._kernels(k, degree)
                xs, ws = rng.uniform(-2, 2, k).tolist(), rng.uniform(0.2, 1, k).tolist()
                u = float(rng.uniform(0.1, 2))
                if where == "x":
                    xs[1] = value
                elif where == "w":
                    ws[0] = value
                else:
                    u = value
                target = rng.standard_normal(degree + 1).tolist()
                r = (1e-3 * rng.standard_normal(degree + 1)).tolist()
                outcomes.append(self._agree(*kernels, xs, ws, u, target, r))
        residual, step = outcomes[-1]
        if value == 1e200:  # an exact moment beyond the float range
            assert residual == repr(OverflowError("integer division result too large "
                                                  "for a float"))
        if not math.isfinite(value):
            # a non-finite input moves no coordinate to another finite value:
            # the cutoff drops every column, or the update is not finite
            start = hexed([*xs, *ws, u])
            for got, was in zip([*step[0], *step[1], step[2]], start):
                assert got == was or got in ("inf", "-inf", "nan")

    def test_the_polish_takes_no_nu(self):
        # the polish runs on the clock width u = nu delta, so nu is neither a
        # parameter of its loops nor a name in their kernels
        from momentflow import kernels, recovery

        for fn in (recovery._refine, recovery._exact_residuals, recovery._gauss_newton_step):
            assert "nu" not in inspect.signature(fn).parameters, fn.__name__
        for k in range(2, 9):
            for kind in ("residual", "step"):
                assert re.search(r"\bnu\b", kernels.KINDS[kind][1](k, 2 * k)) is None, (kind, k)


def test_workload_reprs_agree_with_kernels_and_with_loops(monkeypatch):
    # the benchmark's recover-1d generator, seeds 0-2: every result and error
    # repr of the recovery and of the distance is the same whether each kernel
    # runs compiled or as its loops
    from momentflow import boundary, core, recovery

    workloads = _workloads()
    inputs = [MomentSequence.of_1d(op["input"]["s"])
              for seed in range(3) for op in workloads.gen_recover(seed, 70)]

    def reprs():
        out = []
        for s in inputs:
            for run in (recover_gaussian_mixture, boundary.heat_distance_1d):
                try:
                    out.append(repr(run(s, 1.0)))
                except Exception as exc:
                    out.append(repr(exc))
        return out

    runs = {}
    for mode, policy in (("kernels", compiled_kernel), ("loops", lambda *a, **k: None)):
        with fresh_kernels() as kernels, monkeypatch.context() as patch:
            patch.setattr(boundary, "sighted_kernel", policy)
            patch.setattr(recovery, "sighted_kernel", policy)
            patch.setattr(core, "sighted_kernel", policy)
            runs[mode] = reprs()
            kinds = {kind for kind, _ in kernels}
            assert kinds == ({"search", "rule", "residual", "step"}
                             if mode == "kernels" else set())
    assert len(runs["loops"]) == 2 * 3 * 70 * 7
    assert runs["kernels"] == runs["loops"]
