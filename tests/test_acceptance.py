"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is designed to finish well under a minute.
"""

import importlib.util
import json
import math
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import momentflow as mf
from momentflow import jsonio
from momentflow.cli import main as cli_main
from momentflow.exppoly import Term

from helpers import random_sequence, reference_evolved

GOLDEN = Path(__file__).parent / "golden"


def _report(num, text):
    print(f"[criterion {num:02d}] PASS: {text}")


def indicator(degree, k):
    return mf.MomentSequence.of_1d([1.0 if i == k else 0.0 for i in range(degree + 1)])


def test_criterion_01_heat_table_exact():
    # every line of the 1-D heat table, integer coefficients matched exactly
    table = {
        0: {0: {0: 1.0}},
        1: {1: {0: 1.0}},
        2: {2: {0: 1.0}, 0: {1: 2.0}},
        3: {3: {0: 1.0}, 1: {1: 6.0}},
        4: {4: {0: 1.0}, 2: {1: 12.0}, 0: {2: 12.0}},
        5: {5: {0: 1.0}, 3: {1: 20.0}, 1: {2: 60.0}},
    }
    for source in range(6):
        F = mf.heat_flow(indicator(5, source), 1.0)
        for target, lines in table.items():
            want = lines.get(source, {})
            got = {t.power: t.coeff for t in F.entry((target,)).terms}
            assert got == want, (source, target, got, want)
    _report(1, "heat flow reproduces the degree-5 table with exact coefficients")


def test_criterion_02_combined_flow_examples():
    def term_map(f):
        return {(t.power, t.rate): t.coeff for t in f.terms}

    s = mf.MomentSequence.of_1d([2.0, 3.0, 5.0, 7.0])
    # drift +1: rates -1..-4
    F = mf.combined_flow(s, 1.0, (1.0,))
    want = {
        (0,): {(0, (-1,)): 2.0},
        (1,): {(0, (-2,)): 3.0},
        (2,): {(0, (-3,)): 5.0 - 2.0, (0, (-1,)): 2.0},
        (3,): {(0, (-4,)): 7.0 - 3 * 3.0, (0, (-2,)): 3 * 3.0},
    }
    for alpha, terms in want.items():
        got = term_map(F.entry(alpha))
        assert set(got) == set(terms)
        for key, c in terms.items():
            assert abs(got[key] - c) <= 1e-13 * max(1.0, abs(c))
    # drift -1: same stored rates, coefficients (s_2 + s_0), -s_0, ...
    F = mf.combined_flow(s, 1.0, (-1.0,))
    want = {
        (2,): {(0, (-3,)): 5.0 + 2.0, (0, (-1,)): -2.0},
        (3,): {(0, (-4,)): 7.0 + 3 * 3.0, (0, (-2,)): -3 * 3.0},
    }
    for alpha, terms in want.items():
        got = term_map(F.entry(alpha))
        assert set(got) == set(terms)
        for key, c in terms.items():
            assert abs(got[key] - c) <= 1e-13 * max(1.0, abs(c))
    _report(2, "combined flow matches both drift examples term-for-term")


def test_criterion_03_transport_vs_pushforward():
    rng = np.random.default_rng(103)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        mu = mf.AtomicMeasure(
            n,
            tuple((tuple(rng.uniform(-2, 2, size=n)), rng.uniform(0.2, 1))
                  for _ in range(k)),
        )
        a = tuple(rng.uniform(-1, 1, size=n))
        t = rng.uniform(-2, 2)
        lhs = mf.oracle_moments_atomic(mf.transport_atomic(mu, a, t), d)
        rhs = mf.evaluate_flow(mf.transport_flow(mf.oracle_moments_atomic(mu, d), a), t)
        for alpha in lhs.indices():
            assert abs(lhs[alpha] - rhs[alpha]) <= 1e-12 * (1 + abs(rhs[alpha]))
    _report(3, "transport closed form matches the pushforward oracle (200 runs)")


def test_criterion_04_semigroup_and_linearity():
    rng = np.random.default_rng(104)
    dims = [1] * 10 + [2] * 6 + [3] * 4

    def draw_drift(n):
        # magnitudes away from zero: near-resonant rates amplify roundoff
        return tuple(rng.choice([-1, 1]) * rng.uniform(0.2, 1.0) for _ in range(n))

    def make(kind, n):
        if kind == "heat":
            return lambda q: mf.heat_flow(q, 1.0)
        if kind == "transport":
            a = draw_drift(n)
            return lambda q: mf.transport_flow(q, a)
        a = draw_drift(n)
        nu = rng.uniform(0.1, 1.5)
        return lambda q: mf.combined_flow(q, nu, a)

    count = 0
    for kind in ("heat", "transport", "combined"):
        for _ in range(167):
            n = dims[int(rng.integers(0, len(dims)))]
            d = int(rng.integers(2, {1: 9, 2: 7, 3: 6}[n]))
            s = random_sequence(rng, n, d)
            s2 = random_sequence(rng, n, d)
            flow = make(kind, n)
            t1, t2 = rng.uniform(-1, 1, size=2)
            one = mf.evaluate_flow(flow(mf.evaluate_flow(flow(s), t1)), t2)
            both = mf.evaluate_flow(flow(s), t1 + t2)
            for alpha in s.indices():
                assert abs(one[alpha] - both[alpha]) <= 1e-11 * (1 + abs(both[alpha]))
            ca, cb = rng.normal(), rng.normal()
            lin = mf.evaluate_flow(flow(mf.linear_combination([ca, cb], [s, s2])), t1)
            ref = mf.linear_combination(
                [ca, cb],
                [mf.evaluate_flow(flow(s), t1), mf.evaluate_flow(flow(s2), t1)],
            )
            for alpha in s.indices():
                assert abs(lin[alpha] - ref[alpha]) <= 1e-11 * (1 + abs(ref[alpha]))
            count += 1
    assert count == 501
    _report(4, "semigroup and linearity hold for all three flows (501 runs)")


def test_criterion_05_heat_vs_gaussian_oracle():
    rng = np.random.default_rng(105)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        comps = tuple(
            ((rng.uniform(-2, 2),), rng.uniform(0.2, 1.0), rng.uniform(0.05, 1.5))
            for _ in range(k)
        )
        g = mf.GaussianMixture(1, 1.0, comps)
        d = int(rng.integers(2, 11))
        t = rng.uniform(-g.min_time, 2.0)
        lhs = mf.oracle_moments_gaussian_mixture(mf.evolve_gaussian_mixture(g, t), d)
        rhs = mf.evaluate_flow(
            mf.heat_flow(mf.oracle_moments_gaussian_mixture(g, d), 1.0), t
        )
        for alpha in lhs.indices():
            assert abs(lhs[alpha] - rhs[alpha]) <= 1e-9 * (1 + abs(rhs[alpha]))
    _report(5, "heat flow agrees with the evolved-mixture oracle (50 mixtures)")


def test_criterion_06_combined_vs_reference_ode():
    rng = np.random.default_rng(106)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(2, {1: 9, 2: 7, 3: 5}[n]))
        s = random_sequence(rng, n, d)
        nu = rng.uniform(0.1, 1.5)
        a = tuple(rng.choice([-1, 1]) * rng.uniform(0.2, 1.0) for _ in range(n))
        F = mf.combined_flow(s, nu, a)
        for t in (-0.5, 0.5, -1.0, 1.0, 2.0):
            got = mf.evaluate_flow(F, t)
            want = reference_evolved(s.values, nu, a, t)
            for alpha in s.indices():
                assert abs(got[alpha] - want[alpha]) <= 1e-7 * (1 + abs(want[alpha]))
    _report(6, "combined flow matches adaptive RK integration (50 runs x 5 times)")


def test_criterion_07_heat_distance_worked_instance():
    s = mf.MomentSequence.of_1d([1, 0, 3, 0, 25])
    rep = mf.heat_distance_1d(s, 1.0)
    assert abs(rep.distance - 1.0) <= 1e-9
    assert rep.upper_bound == 1.5
    for got, want in zip(rep.boundary_sequence.as_1d_tuple(), (1, 0, 1, 0, 1)):
        assert abs(got - want) <= 1e-9
    assert np.all(np.abs(rep.kernel_poly - np.array([-1.0, 0.0, 1.0])) <= 1e-8)
    _report(7, "worked instance: distance 1, boundary (1,0,1,0,1), kernel x^2-1")


@lru_cache(maxsize=1)
def _recovery_round_trip_run():
    rng = np.random.default_rng(8)
    instances = []
    elapsed = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        atoms = []
        while len(atoms) < k:
            x = rng.uniform(-2, 2)
            if all(abs(x - a) >= 0.3 for a in atoms):
                atoms.append(x)
        atoms = sorted(atoms)
        weights = rng.uniform(0.2, 1.0, size=k)
        t0 = rng.uniform(0.1, 2.0)
        mu = mf.AtomicMeasure(1, tuple(((a,), w) for a, w in zip(atoms, weights)))
        s = mf.evaluate_flow(
            mf.heat_flow(mf.oracle_moments_atomic(mu, 2 * k), 1.0), t0
        )
        start = time.perf_counter()
        res = mf.recover_gaussian_mixture(s, 1.0)
        report = mf.heat_distance_1d(s, 1.0)
        elapsed += time.perf_counter() - start
        instances.append((atoms, weights, t0, s, res, report))
    return instances, elapsed


def test_criterion_08_recovery_round_trip():
    instances, elapsed = _recovery_round_trip_run()
    for atoms, weights, t0, _, res, _ in instances:
        assert abs(res.delta - t0) <= 1e-6
        got_x = [x for x, _ in res.atoms]
        got_w = [w for _, w in res.atoms]
        assert len(got_x) == len(atoms)
        for gx, gw, x, w in zip(got_x, got_w, atoms, weights):
            assert abs(gx - x) <= 1e-6
            assert abs(gw - w) <= 1e-6
        assert res.residual <= 1e-6
    assert elapsed < 10.0
    _report(8, f"100 recovery round trips within 1e-6 in {elapsed:.2f}s")


def test_criterion_09_dual_adjunctions():
    rng = np.random.default_rng(109)
    for _ in range(200):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(2, 7))
        s = random_sequence(rng, n, d)
        idx = s.indices()
        p0 = {a: rng.normal() for a in idx}
        t = rng.uniform(-1, 1)
        nu = rng.uniform(0.2, 2.0)
        lhs = mf.riesz_apply(mf.evaluate_flow(mf.heat_flow(s, nu), t), p0)
        rhs = mf.riesz_apply(s, mf.heat_dual_poly(p0, nu, t))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))
        a = tuple(rng.uniform(-1, 1, size=n))
        pt = mf.transport_dual_poly(p0, a, t)
        lhs = mf.riesz_apply(mf.evaluate_flow(mf.transport_flow(s, a), t), pt)
        rhs = math.exp(-sum(a) * t) * mf.riesz_apply(s, p0)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))
    _report(9, "heat and transport Riesz adjunctions hold (200 runs)")


def test_criterion_10_one_point_bound():
    s = mf.MomentSequence.of_1d([1, 0, 3, 0, 25])
    rep = mf.heat_distance_1d(s, 1.0)
    assert rep.distance <= mf.distance_upper_bound(s, 1.0)
    instances, _ = _recovery_round_trip_run()
    for _, _, _, s, _, report in instances:
        assert report.distance <= mf.distance_upper_bound(s, 1.0)
    _report(10, "heat distance never exceeds the second-moment bound (101 instances)")


def _cli_worked_instances(workdir):
    """The three fixed CLI instances; returns [(name, argv, output path)]."""
    evolve_in = workdir / "dirac.json"
    jsonio.dump_json(
        evolve_in, jsonio.sequence_to_dict(mf.MomentSequence.of_1d([1, 0, 0]))
    )
    distance_in = workdir / "two_atom.json"
    jsonio.dump_json(
        distance_in, jsonio.sequence_to_dict(mf.MomentSequence.of_1d([1, 0, 3, 0, 25]))
    )
    # fixed recovery instance: three separated atoms heat-evolved by 0.9,
    # pinned as floats so the golden does not move with the flow evaluator;
    # perfbench/test_bench.py checks them against the closed-form mixture
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    recover_in = workdir / "three_atom.json"
    jsonio.dump_json(recover_in, jsonio.sequence_to_dict(
        mf.MomentSequence.of_1d(workloads.RECOVER_GOLDEN_INPUT)
    ))
    return [
        ("evolve.json",
         ["evolve", "--equation", "heat", "--t", "1", "--in", str(evolve_in)]),
        ("distance.json", ["distance", "--in", str(distance_in)]),
        ("recover.json", ["recover", "--in", str(recover_in)]),
    ]


def test_criterion_11_cli_determinism(tmp_path):
    for name, argv in _cli_worked_instances(tmp_path):
        runs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}_{name}"
            assert cli_main(argv + ["--out", str(out)]) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1], f"{name}: runs differ"
        golden = (GOLDEN / name).read_bytes()
        assert runs[0] == golden, f"{name}: output differs from golden file"
    _report(11, "CLI outputs byte-identical across runs and to golden files")
