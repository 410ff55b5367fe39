"""Tests for moment sequences, the Riesz functional, and the moment oracles."""

import math
import re

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
from momentflow import kernels
from momentflow.core import (
    chain_sum,
    compiled_kernel,
    gaussian_moment_1d,
    guard,
    select,
    sighted_kernel,
)
from momentflow.kernels import TraceError, trace

from helpers import fresh_kernels


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

    def test_the_index_cache_is_bounded(self):
        # more distinct (n, d) than the cache holds: it keeps at most its bound,
        # and an evicted set enumerates again to the same indices
        from momentflow.core import _multiindices

        bound = _multiindices.cache_info().maxsize
        assert bound is not None
        pairs = [(n, d) for n in (1, 2) for d in range(bound)]
        first = [enumerate_multiindices(n, d) for n, d in pairs]
        assert _multiindices.cache_info().currsize <= bound
        assert [enumerate_multiindices(n, d) for n, d in pairs] == first
        assert len(first[-1]) == math.comb(2 + bound - 1, 2)


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

    def test_values_are_floats_on_either_key_path(self):
        # enumerated keys in order take the path without a lookup per key;
        # equal keys, reordered keys and non-float values convert alike
        idx = enumerate_multiindices(2, 3)
        raw = [1, 2.5, True, np.float64(0.1), -0.0, 7, 3, 1e300, 5e-324, 2]

        class Value(float):
            pass

        raw[2] = Value(4.0)
        want = [float(v) for v in raw]
        for vals in (dict(zip(idx, raw)), {tuple(list(a)): v for a, v in zip(idx, raw)},
                     dict(reversed(list(zip(idx, raw)))),
                     dict(zip(idx, map(float, raw)))):
            s = MomentSequence(2, 3, vals)
            assert list(s.values) == idx
            assert all(a is b for a, b in zip(s.values, idx))
            assert [type(v) for v in s.values.values()] == [float] * len(idx)
            assert [v.hex() for v in s.values.values()] == [v.hex() for v in want]

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

    @pytest.mark.parametrize("atom", [
        ((math.nan,), 1.0), ((-math.inf,), 1.0), ((0.0,), math.nan), ((0.0,), math.inf),
    ])
    def test_rejects_a_non_finite_atom(self, atom):
        with pytest.raises(ValueError, match="atom 1 is not finite"):
            AtomicMeasure(1, (((1.0,), 1.0), atom))

    def test_rejects_merged_weights_that_overflow(self):
        with pytest.raises(ValueError, match="atom 1 merges into a weight that is not"):
            AtomicMeasure(1, (((0.0,), 1e308), ((0.0,), 1e308)))


    def test_overflow_names_the_atom(self):
        mu = AtomicMeasure(1, (((0.5,), 1.0), ((1e200,), 1.0)))
        with pytest.raises(OverflowError, match=r"moments of atom 1 \(point \[1e\+200\]\) "
                                                r"overflow at degree 2: "):
            oracle_moments_atomic(mu, 2)
        # 1e200 ** 1 does not overflow, so degree 1 has finite moments
        assert oracle_moments_atomic(mu, 1).as_1d_tuple() == (2.0, 1e200 + 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_per_moment_products_bit_for_bit(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(20):
            atoms = tuple((tuple(rng.uniform(-3, 3, n)), float(rng.uniform(-1, 2)))
                          for _ in range(int(rng.integers(1, 5))))
            mu = AtomicMeasure(n, atoms)
            d = int(rng.integers(0, 10 if n < 3 else 7))
            want = [
                math.fsum(w * math.prod(x**a for x, a in zip(p, alpha)) for p, w in mu.atoms)
                for alpha in enumerate_multiindices(n, d)
            ]
            got = oracle_moments_atomic(mu, d).values.values()
            assert [v.hex() for v in got] == [v.hex() for v in want]


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

    @pytest.mark.parametrize("component", [
        ((math.nan,), 0.5, 1.0), ((math.inf,), 0.5, 1.0),
        ((0.0,), math.nan, 1.0), ((0.0,), -math.inf, 1.0),
        ((0.0,), 0.5, math.nan), ((0.0,), 0.5, math.inf),
    ])
    def test_rejects_a_non_finite_component(self, component):
        with pytest.raises(ValueError, match="component 1 is not finite"):
            GaussianMixture(1, 1.0, (((1.0,), 1.0, 0.5), component))

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_rejects_a_non_finite_nu(self, nu):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            GaussianMixture(1, nu, (((0.0,), 1.0, 1.0),))

    @staticmethod
    def _moment(mean, var, m):
        """``E[(mean + Z)^m]`` as one even-central-moment sum, term by term."""
        total = 0.0
        for j in range(m // 2 + 1):
            dfact = math.factorial(2 * j) // (2**j * math.factorial(j))
            total += math.comb(m, 2 * j) * mean ** (m - 2 * j) * var**j * dfact
        return total

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_per_moment_sums_bit_for_bit(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(20):
            comps = tuple(
                (tuple(rng.uniform(-3, 3, n)), float(rng.uniform(-1, 2)),
                 0.0 if i == 0 else float(rng.uniform(0, 2)))  # variance 0 too
                for i in range(int(rng.integers(1, 5)))
            )
            g = GaussianMixture(n, float(rng.uniform(0.1, 2.0)), comps)
            d = int(rng.integers(0, 10 if n < 3 else 7))
            want = {
                alpha: math.fsum([
                    w * math.prod([self._moment(p, 2.0 * g.nu * t, a)
                                   for p, a in zip(c, alpha)])
                    for c, w, t in g.components
                ])
                for alpha in enumerate_multiindices(n, d)
            }
            got = oracle_moments_gaussian_mixture(g, d).values
            assert list(got) == list(want)
            assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]

    def test_single_moment_matches_the_sum_bit_for_bit(self):
        rng = np.random.default_rng(74)
        for mean, var in [(0.0, 0.0), (-1.25, 0.0), *rng.uniform(-3, 3, (20, 2))]:
            var = abs(float(var))
            for m in range(12):
                assert (gaussian_moment_1d(float(mean), var, m).hex()
                        == self._moment(float(mean), var, m).hex())

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="moment order must be >= 0"):
            gaussian_moment_1d(1.0, 1.0, -1)

    def test_overflow_names_the_component(self):
        g = GaussianMixture(1, 1.0, (((0.0,), 0.5, 1.0), ((1e200,), 0.5, 0.0)))
        with pytest.raises(OverflowError, match=r"component 1 \(center \[1e\+200\]"):
            oracle_moments_gaussian_mixture(g, 4)

    @pytest.mark.parametrize("comps, error", [
        # a power of the center leaves the float range
        ((((0.5,), 1.0, 0.2), ((1e200,), 0.5, 0.1)),
         r"OverflowError\(\"moments of component 1 \(center \[1e\+200\]"),
        # a finite table times its weight overflows
        ((((2.0,), 1e308, 0.5), ((0.5,), 1.0, 0.5)),
         r"ValueError\('moment \(1,\) is not finite: inf'\)"),
        ((((2.0,), 1e308, 0.5), ((2.0,), -1e308, 0.5)),
         r"ValueError\('-inf \+ inf in fsum'\)"),
        ((((1.0,), 1e308, 0.0), ((1.0,), 1e308, 0.0)),
         r"OverflowError\('intermediate overflow in fsum'\)"),
    ], ids=["power", "weighted", "inf-minus-inf", "fsum"])
    def test_overflow_and_non_finite_moments_raise(self, comps, error):
        with pytest.raises((OverflowError, ValueError)) as info:
            oracle_moments_gaussian_mixture(GaussianMixture(1, 1.0, comps), 4)
        assert re.match(error, repr(info.value))


class TestKernels:
    @staticmethod
    def _source(a, b):
        return f"def add(x):\n    return x + {a} * {b} + OFFSET\n"

    def test_second_sighting_compiles(self, monkeypatch):
        built = []

        def source(a, b):
            built.append((a, b))
            return self._source(a, b)

        monkeypatch.setitem(kernels.KINDS, "add", ({"OFFSET": 0.5}, source))
        with fresh_kernels() as compiled:
            assert sighted_kernel("add", (2, 3)) is None
            assert built == [] and compiled == {}
            add = sighted_kernel("add", (2, 3))
            assert add(1.0) == 7.5 and built == [(2, 3)]
            assert sighted_kernel("add", (2, 3)) is add
            # another key, and the same key of another kind, are sighted apart
            assert sighted_kernel("add", (3, 2)) is None
            assert sighted_kernel("mul", (2, 3)) is None
            assert built == [(2, 3)]
            assert list(compiled) == [("add", (2, 3))]

    def test_compiled_kernel_compiles_once_and_is_seen_on_first_sighting(self, monkeypatch):
        monkeypatch.setitem(kernels.KINDS, "add", ({"OFFSET": 1.0}, self._source))
        with fresh_kernels() as compiled:
            add = compiled_kernel("add", (1, 1))
            assert compiled_kernel("add", (1, 1)) is add
            assert sighted_kernel("add", (1, 1)) is add
            assert add(0.0) == 2.0 and list(compiled) == [("add", (1, 1))]

    def test_a_kernel_runs_in_its_namespace_and_compiling_writes_nothing_there(
            self, monkeypatch):
        namespace = {"OFFSET": 1.0}
        monkeypatch.setitem(kernels.KINDS, "add", (namespace, self._source))
        with fresh_kernels():
            add = compiled_kernel("add", (1, 1))
            assert list(namespace) == ["OFFSET", "__builtins__"]
            namespace["OFFSET"] = 2.0  # read when the kernel runs, as a module global is
            assert add.__globals__ is namespace and add(0.0) == 3.0


def _every_operation(x, y, n):
    return [x + y, x - y, x * y, x / y, x // y, n << 3,
            2.5 + x, 2.5 - x, 2.5 * x, 2.5 / x, 2.5 // x, 1 << n,
            x < y, x <= y, x == y, x != y, x > y, x >= y, 0.5 < x,
            abs(x), -y, *x.as_integer_ratio(), n.bit_length()]


def _times_one(x):
    # x * 1.0 would make an int a float, so only the int 1 is left out
    return [x * 1, 1 * x, x * 1.0, 2 * x]


def _ratio(a, b):
    if guard(b == 1.0):
        return [0.0]
    return [select(a > b, a / b, -a)]


def _two_raises(x, n, d):
    p = math.exp(x)  # may overflow
    q = n / d  # may overflow, or divide by zero
    return q + p


def _branches(x):
    return 1.0 if x > 0.0 else 2.0


def _hashes(x):
    return {x: 1.0}


def _eager_all(xs):
    # the builtin all tests the truth of each traced comparison, as an if does
    return all(r * r < 1.0 for r in map(lambda x: 1.0 / x, xs))


def _kernel(fn, *shapes, namespace=None):
    defined = {}
    exec(trace(fn, "kernel", *shapes), dict(namespace or {}), defined)
    return defined["kernel"]


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:  # the kernel raises what its loops raise
        return repr(exc)


class TestTrace:
    def test_every_operation_is_the_loops_operation(self):
        kernel = _kernel(_every_operation, float, float, float)
        for x, y, n in [(1.5, -0.25, 5), (-3.0, 2.0, 0), (0.5, 0.0, 1), (2.0, 1e300, 7),
                        (-0.0, 0.0, 2), (1e300, 3.0, 1), (math.nan, 1.0, 3), (-8.0, 0.5, 4)]:
            assert _outcome(kernel, x, y, n) == _outcome(_every_operation, x, y, n)

    def test_select_and_guard_hand_back(self):
        handed = []

        def ratio(a, b):
            handed.append((a, b))
            return _ratio(a, b)

        source = trace(_ratio, "kernel", float, float)
        assert "return _ratio(a, b)" in source and " if " in source
        kernel = _kernel(_ratio, float, float, namespace={"_ratio": ratio})
        # both choices are computed, as in the loops: -1.0 / 0.0 raises
        for a, b in [(3.0, 2.0), (1.0, 2.0), (-1.0, 0.0), (2.0, 1.0), (math.inf, 1.0)]:
            assert _outcome(kernel, a, b) == _outcome(_ratio, a, b)
        assert handed == [(2.0, 1.0), (math.inf, 1.0)]

    def test_folding_keeps_the_order_of_operations_that_raise(self):
        kernel = _kernel(_two_raises, float, float, float, namespace={"math": math})
        for x, n, d in [(1e200, 10**400, 1), (1e200, 1, 0), (2.0, 10**400, 1), (2.0, 1, 0),
                        (3.0, 7, 2)]:
            assert _outcome(kernel, x, n, d) == _outcome(_two_raises, x, n, d)

    @pytest.mark.parametrize("fn, shape, message", [
        (_branches, float, "branches"), (_hashes, float, "hashes"),
        (_eager_all, [float] * 2, "branches"),
    ])
    def test_a_branch_or_a_hash_on_a_traced_value_raises(self, fn, shape, message):
        with pytest.raises(TraceError, match=message):
            trace(fn, "kernel", shape)

    def test_a_factor_of_the_int_one_records_no_operation(self):
        source = trace(_times_one, "kernel", float)
        assert source.endswith("return [x, x, x * 1.0, 2 * x]\n")
        kernel = _kernel(_times_one, float)
        for x in (0.0, -0.0, math.nan, math.inf, -math.inf, 2**80, -3, 2.5):
            got, want = kernel(x), _times_one(x)
            assert repr(got) == repr(want)
            assert list(map(type, got)) == list(map(type, want))
            assert [math.copysign(1.0, v) for v in got] == [
                math.copysign(1.0, v) for v in want]

    def test_chain_sum_adds_left_to_right_from_zero(self):
        assert chain_sum([]) == 0.0 and math.copysign(1.0, chain_sum([-0.0])) == 1.0
        assert chain_sum([1e16, 1.0, -1e16]) == 0.0  # compensated summation gives 1.0


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
