"""Self-checks of the benchmark: its oracles, its failure accounting, its determinism.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import run
import workloads as wl

HERE = Path(__file__).resolve().parent


def _flow_output(op):
    alphas = list(op["want"][0])
    return {"alphas": [list(a) for a in alphas],
            "values": [[exact[a] for a in alphas] for exact in op["want"]]}


def test_corrupted_flow_output_fails():
    op = wl.gen_flow(7, units=2)[0]
    out = _flow_output(op)
    assert run.check_op("flow-nd", op, "ok", json.dumps(out)) == (0.0, True, "")
    out["values"][1][5] += 1e-5 * (1.0 + abs(out["values"][1][5]))
    err, ok, kind = run.check_op("flow-nd", op, "ok", json.dumps(out))
    assert not ok and err == pytest.approx(1e-5)


def test_corrupted_recovery_output_fails():
    op = wl.gen_recover(7, per_k=1)[3]
    want = op["want"]
    out = {"delta": want["t0"], "atoms": [[x, w] for x, w in zip(want["atoms"], want["weights"])]}
    assert run.check_op("recover-1d", op, "ok", json.dumps(out)) == (0.0, True, "")
    out["atoms"][2][0] += 1e-5
    assert not run.check_op("recover-1d", op, "ok", json.dumps(out))[1]
    out["atoms"].pop()
    assert not run.check_op("recover-1d", op, "ok", json.dumps(out))[1]
    assert not run.check_op("recover-1d", op, "ok", '{"delta": NaN, "atoms": []}')[1]
    assert not run.check_op("recover-1d", op, "err", '"NotInteriorError: not interior"')[1]


@pytest.mark.parametrize("name", ["evolve", "distance", "recover"])
def test_flipped_golden_byte_fails(name):
    ops = wl.gen_cli(0, cycles=1, goldens=wl.load_goldens(run.ROOT))
    op = next(o for o in ops if o["tag"] == name)
    golden = op["want"]["golden"]
    assert run.check_op("cli-batch", op, "ok", (0, golden))[1]
    for i in (golden.index(b"0"), len(golden) // 2):
        flipped = golden[:i] + bytes([golden[i] ^ 1]) + golden[i + 1:]
        assert not run.check_op("cli-batch", op, "ok", (0, flipped))[1]
    assert not run.check_op("cli-batch", op, "err", (3, golden))[1]
    assert not run.check_op("cli-batch", op, "ok", (0, None))[1]


def test_non_finite_json_is_invalid():
    with pytest.raises(wl.InvalidOutput):
        wl.strict_json('{"delta": NaN}')
    with pytest.raises(wl.InvalidOutput):
        wl.strict_json('{"distance": Infinity}')


def test_oracle_reproduces_worked_instance():
    # (1,0,3,0,25) is 1/2 (delta_{-1} + delta_{1}) heat-evolved by t = 1
    s = wl.moments_1d([-1.0, 1.0], [0.5, 0.5], 1.0, 4)
    assert s == [1.0, 0.0, 3.0, 0.0, 25.0]
    # backward heat by the distance 1 lands on the boundary point (1,0,1,0,1)
    back = wl.flow_oracle(1, 4, {(j,): v for j, v in enumerate(s)}, 1.0, [0.0], -1.0)
    assert [back[(j,)] for j in range(5)] == pytest.approx([1, 0, 1, 0, 1], abs=1e-14)


def test_recover_golden_input_is_the_closed_form_mixture():
    atoms = [x for x, _ in wl.RECOVER_GOLDEN_ATOMS]
    weights = [w for _, w in wl.RECOVER_GOLDEN_ATOMS]
    exact = wl.moments_1d(atoms, weights, wl.RECOVER_GOLDEN_T0, 6)
    assert wl.RECOVER_GOLDEN_INPUT == pytest.approx(exact, rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("n,d,a", [(2, 6, (0.4, -0.7)), (3, 4, (0.0, 0.5, 1e-6))])
def test_factored_oracle_matches_full_generator(n, d, a):
    rng = np.random.default_rng(n)
    idx = wl.multiindices(n, d)
    s = {alpha: float(v) for alpha, v in zip(idx, rng.normal(size=len(idx)))}
    M, order = wl.generator_matrix(n, d, 0.8, a)
    for t in (-0.5, 1.0, 2.0):
        full = expm(t * M) @ np.array([s[alpha] for alpha in order])
        factored = wl.flow_oracle(n, d, s, 0.8, a, t)
        assert [factored[alpha] for alpha in order] == pytest.approx(full, rel=1e-12, abs=1e-12)


def test_inputs_depend_only_on_the_seed():
    assert wl.gen_recover(3, 1) == wl.gen_recover(3, 1)
    assert wl.gen_recover(3, 1) != wl.gen_recover(4, 1)
    first, second = wl.gen_flow(3, 2), wl.gen_flow(3, 2)
    assert [op["input"] for op in first] == [op["input"] for op in second]


def test_generators_and_checkers_do_not_import_the_library():
    code = ("import sys, workloads as wl, run; wl.gen_recover(0, 1); wl.gen_flow(0, 2); "
            "wl.gen_cli(0, 1, wl.load_goldens(run.ROOT)); "
            "assert not any(m.startswith(('momentflow', 'helpers')) for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload,scale", [("recover-1d", 1 / 35), ("flow-nd", 0.25),
                                            ("cli-batch", 0.3)])
def test_same_seed_gives_identical_accuracy(workload, scale):
    one = run.run_workload(workload, 5, 0.0, scale=scale)
    two = run.run_workload(workload, 5, 0.0, scale=scale)
    for result in (one, two):
        assert result["correct"]
        assert result["details"]["traced_output_mismatches"] == 0
    for metric in ("pass_frac", "digits_p50"):
        assert one["end_to_end"][metric] == two["end_to_end"][metric]
    assert one["failed"] == two["failed"]
