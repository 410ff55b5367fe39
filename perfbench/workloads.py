"""Seeded inputs, independent oracles and output checks for the three workloads.

Nothing here imports ``momentflow`` or the repository's test helpers: the
inputs a workload is measured on and the answers it is checked against cannot
change when the library changes.

* ``recover-1d``: ``recover_gaussian_mixture(s, nu=1)`` on closed-form moments
  of a random 1-D Gaussian mixture (k = 2..8 atoms).  Oracle: the mixture.
* ``flow-nd``: ``combined_flow(s, nu, a)`` evaluated at four times.  Oracle:
  this module's own moment generator ``M`` and ``scipy.linalg.expm``.
* ``cli-batch``: one ``python -m momentflow.cli`` process per op.  Oracles:
  byte equality with ``tests/golden`` plus the two oracles above.

Every op carries the input the program receives (``input``), what the checker
needs (``want``), whether its output is a flow evaluation (``flow``), and
whether it lies inside the envelope the repository's acceptance tests promise
(``envelope``).  An op inside the envelope that fails
its oracle is a correctness violation; outside it a failure is a measured,
known defect.
"""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path

import numpy as np
from scipy.linalg import expm

NU_RECOVER = 1.0
RECOVER_KS = range(2, 9)
RECOVER_TOL = 1e-6  # acceptance criterion 8: delta, atoms and weights
FLOW_CYCLE = ((2, 8), (3, 8), (3, 12), (3, 12), (4, 10), (4, 10))
FLOW_TIMES = (-0.5, 0.5, 1.0, 2.0)
FLOW_TOL = 1e-7  # acceptance criterion 6, relative to 1 + |exact|
NEAR_RESONANT_EVERY = 12  # one flow op in 12 has a drift component 10^U(-9,-1)
MIXTURE_TOL = 1e-12
DIGITS_CAP = 16.0

GOLDEN_NAMES = ("evolve.json", "distance.json", "recover.json")
# The input of the recover golden: three atoms (-1.5, 0.6), (0.2, 0.8),
# (1.1, 0.4) heat-evolved by t = 0.9 with nu = 1.  The golden bytes depend on
# the last bits of these floats, which are the values the acceptance test
# computes, so they are stored literally; test_bench.py checks them against
# the closed-form moments.
RECOVER_GOLDEN_INPUT = (
    1.8, -0.2999999999999998, 5.106, -3.1061999999999985,
    41.27322, -45.24338999999999, 534.9291906000001,
)
RECOVER_GOLDEN_ATOMS = ((-1.5, 0.6), (0.2, 0.8), (1.1, 0.4))
RECOVER_GOLDEN_T0 = 0.9
TRAJ_STEPS = 200


class InvalidOutput(ValueError):
    """The program wrote output that is not valid under the strict contract."""


# ---------------------------------------------------------------- exact moments


def _dyadic(v: float) -> tuple[int, int]:
    """``v = num / 2**exp`` exactly, with ``exp >= 0``."""
    num, den = float(v).as_integer_ratio()
    return num, den.bit_length() - 1


def _scaled(v: float, bits: int) -> int:
    num, exp = _dyadic(v)
    return num << (bits - exp)


def _gauss_moments_scaled(x: int, var: int, degree: int, bits: int) -> list[int]:
    """``E[(x + Z)^j]``, ``Z ~ N(0, var)``, as integers at scale ``2**(j*bits)``.

    ``x`` and ``var`` are integers at scale ``2**bits``; the recurrence
    ``m_j = x m_{j-1} + (j-1) var m_{j-2}`` is then exact.
    """
    m = [1, x]
    for j in range(2, degree + 1):
        m.append(x * m[j - 1] + (((j - 1) * var * m[j - 2]) << bits))
    return m[: degree + 1]


def mixture_moments(components, nu: float, alphas) -> dict[tuple, float]:
    """Correctly rounded moments of ``sum_i w_i N(c_i, 2 nu t_i I)``.

    ``components`` is a list of ``(center tuple, weight, time)``.  All
    arithmetic is exact on the binary values of the inputs; each moment is
    rounded once at the end.
    """
    alphas = [tuple(a) for a in alphas]
    degree = max((sum(a) for a in alphas), default=0)
    comps = []
    for center, w, t in components:
        var_num = 2 * _dyadic(nu)[0] * _dyadic(t)[0]
        var_exp = _dyadic(nu)[1] + _dyadic(t)[1]
        comps.append((center, w, var_num, var_exp))
    bits = max(
        [_dyadic(w)[1] for _, w, _, _ in comps]
        + [e for *_, e in comps]
        + [_dyadic(x)[1] for c, *_ in comps for x in c]
    )
    tables = []
    for center, w, var_num, var_exp in comps:
        var = var_num << (bits - var_exp)
        per_axis = [
            _gauss_moments_scaled(_scaled(x, bits), var, degree, bits) for x in center
        ]
        tables.append((_scaled(w, bits), per_axis))
    out = {}
    for alpha in alphas:
        total = 0
        for w, per_axis in tables:
            term = w
            for axis, aj in enumerate(alpha):
                term *= per_axis[axis][aj]
            total += term
        out[alpha] = total / (1 << ((sum(alpha) + 1) * bits))
    return out


def moments_1d(atoms, weights, t: float, degree: int, nu: float = NU_RECOVER) -> list[float]:
    comps = [((x,), w, t) for x, w in zip(atoms, weights)]
    m = mixture_moments(comps, nu, [(j,) for j in range(degree + 1)])
    return [m[(j,)] for j in range(degree + 1)]


# ---------------------------------------------------------------- flow oracle


def multiindices(n: int, d: int) -> list[tuple[int, ...]]:
    """All ``alpha`` with ``|alpha| <= d``, ordered by total degree."""
    return sorted(
        (a for a in product(range(d + 1), repeat=n) if sum(a) <= d),
        key=lambda a: (sum(a), tuple(-x for x in a)),
    )


def generator_1d(d: int, nu: float, a: float) -> np.ndarray:
    """One coordinate of the moment ODE: ``m' = -a(m+1) s_m + nu m(m-1) s_{m-2}``."""
    G = np.zeros((d + 1, d + 1))
    for m in range(d + 1):
        G[m, m] = -a * (m + 1)
        if m >= 2:
            G[m, m - 2] = nu * m * (m - 1)
    return G


def generator_matrix(n: int, d: int, nu: float, a) -> tuple[np.ndarray, list]:
    """The full generator ``M`` of ``ds/dt = M s`` on ``|alpha| <= d``."""
    idx = multiindices(n, d)
    pos = {alpha: i for i, alpha in enumerate(idx)}
    M = np.zeros((len(idx), len(idx)))
    for alpha, i in pos.items():
        M[i, i] = -sum(aj * (al + 1) for aj, al in zip(a, alpha))
        for j, al in enumerate(alpha):
            if al >= 2:
                M[i, pos[alpha[:j] + (al - 2,) + alpha[j + 1:]]] += nu * al * (al - 1)
    return M, idx


def flow_oracle(n: int, d: int, s: dict, nu: float, a, t: float) -> dict:
    """``expm(t M) s``.

    ``M`` is the sum of one commuting generator per coordinate, and each of
    them only lowers its own index, so ``|alpha| <= d`` is closed under every
    factor and ``expm(t M) = prod_j expm(t M_j)`` exactly on the truncated
    index set.  The dense tensor holds zeros outside that set, which the
    lower-triangular factors never read into it.
    """
    S = np.zeros((d + 1,) * n)
    for alpha, v in s.items():
        S[alpha] = v
    for j in range(n):
        E = expm(t * generator_1d(d, nu, a[j]))
        S = np.moveaxis(np.tensordot(E, S, axes=([1], [j])), 0, j)
    return {alpha: float(S[alpha]) for alpha in s}


# ---------------------------------------------------------------- error measure


def scaled_error(got: float, want: float) -> float:
    return abs(got - want) / (1.0 + abs(want))


def digits(err: float) -> float:
    """Correct digits ``-log10(err)``, capped at 16 for an exact result."""
    return DIGITS_CAP if err <= 10.0 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(err))


def _reject_constant(name: str):
    raise InvalidOutput(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN and Infinity are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InvalidOutput(f"invalid JSON: {exc}") from None


def _finite(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise InvalidOutput(f"not a finite number: {v!r}")
    return float(v)


# ---------------------------------------------------------------- recover-1d


def _atoms_with_gap(rng, k: int, lo: float = -2.0, hi: float = 2.0, gap: float = 0.3):
    atoms: list[float] = []
    while len(atoms) < k:
        x = float(rng.uniform(lo, hi))
        if all(abs(x - y) >= gap for y in atoms):
            atoms.append(x)
    return sorted(atoms)


def gen_recover(seed: int, per_k: int) -> list[dict]:
    """``per_k`` instances for every k in 2..8, interleaved.

    The stress generator of ROADMAP item 4: atoms in [-2, 2] at least 0.3
    apart, weights U(0.2, 1), t0 U(0.1, 2).  k is stratified (every k equally
    often) so the failure share varies less from seed to seed.
    """
    rng = np.random.default_rng([seed, 1])
    ops = []
    for _ in range(per_k):
        for k in RECOVER_KS:
            atoms = _atoms_with_gap(rng, k)
            weights = [float(w) for w in rng.uniform(0.2, 1.0, size=k)]
            t0 = float(rng.uniform(0.1, 2.0))
            ops.append({
                "input": {"s": moments_1d(atoms, weights, t0, 2 * k)},
                "want": {"k": k, "atoms": atoms, "weights": weights, "t0": t0},
                "envelope": k <= 4,  # criterion 8 covers k = 1..4
                "t0": t0,
                "tag": f"k{k}",
            })
    return ops


def check_recover(out: dict, want: dict) -> tuple[float, bool]:
    """Max scaled error of (delta, atoms, weights), and criterion 8's verdict."""
    delta = _finite(out["delta"])
    got = sorted((_finite(x), _finite(w)) for x, w in out["atoms"])
    if len(got) != len(want["atoms"]):
        return float("inf"), False
    pairs = [(delta, want["t0"])]
    for (gx, gw), x, w in zip(got, want["atoms"], want["weights"]):
        pairs += [(gx, x), (gw, w)]
    worst = max(abs(g - w) for g, w in pairs)
    return max(scaled_error(g, w) for g, w in pairs), worst <= RECOVER_TOL


# ---------------------------------------------------------------- flow-nd


def _drift(rng, n: int) -> list[float]:
    """One component exactly 0, the others +-U(0.2, 1).

    The zero component takes the resonant path of the flow recursion.  A
    fixed count of zeros keeps the ExpPoly term count, and with it the op's
    time, the same within an (n, d) cell, so the latency quantiles do not
    move with the seed's mix of zero patterns.
    """
    a = [float((1 - 2 * int(rng.integers(2))) * rng.uniform(0.2, 1.0)) for _ in range(n)]
    a[int(rng.integers(n))] = 0.0
    return a


def gen_flow(seed: int, units: int) -> list[dict]:
    """``units`` repetitions of ``FLOW_CYCLE``: (2,8), (3,8), 2 x (3,12), 2 x (4,10).

    The two large cells get double weight so that the latency median falls
    inside the (3,12) band and p90 inside the (4,10) band, not on a boundary
    between cells where it would jump with the seed.  Drift: see ``_drift``.
    In one op of every ``NEAR_RESONANT_EVERY`` (a random one of each block)
    one component is then set to +-10^e, with the exponents e spread evenly
    over (-9, -1).  At most 1 op in 12 can then fail, so p90 stays a time and
    does not become the deadline.
    """
    rng = np.random.default_rng([seed, 2])
    total = units * len(FLOW_CYCLE)
    n_small = total // NEAR_RESONANT_EVERY
    small_at = {b * NEAR_RESONANT_EVERY + int(rng.integers(NEAR_RESONANT_EVERY))
                for b in range(n_small)}
    exponents = list(-9.0 + 8.0 * (np.arange(n_small) + rng.uniform(size=n_small)) / n_small)
    rng.shuffle(exponents)
    ops = []
    for i in range(total):
        n, d = FLOW_CYCLE[i % len(FLOW_CYCLE)]
        idx = multiindices(n, d)
        s = {alpha: float(v) for alpha, v in zip(idx, rng.normal(size=len(idx)))}
        nu = float(rng.uniform(0.2, 1.5))
        a = _drift(rng, n)
        small = i in small_at
        if small:
            j = int(rng.integers(n))
            a[j] = float((1 - 2 * int(rng.integers(2))) * 10.0 ** exponents.pop())
        want = [flow_oracle(n, d, s, nu, a, t) for t in FLOW_TIMES]
        ops.append({
            "input": {"n": n, "d": d, "s": [[list(k), v] for k, v in s.items()],
                      "nu": nu, "a": a, "times": list(FLOW_TIMES)},
            "want": want,
            "envelope": not small, "flow": True,
            "tag": f"n{n}d{d}" + ("-near-resonant" if small else ""),
        })
    return ops


def check_flow(out: dict, want: list[dict]) -> tuple[float, bool]:
    alphas = [tuple(int(x) for x in a) for a in out["alphas"]]
    if set(alphas) != set(want[0]) or len(alphas) != len(want[0]):
        raise InvalidOutput("evaluated index set differs from |alpha| <= d")
    if len(out["values"]) != len(want):
        raise InvalidOutput("wrong number of evaluation times")
    worst = 0.0
    for row, exact in zip(out["values"], want):
        for alpha, v in zip(alphas, row):
            worst = max(worst, scaled_error(_finite(v), exact[alpha]))
    return worst, worst <= FLOW_TOL


# ---------------------------------------------------------------- cli-batch


def sequence_json(n: int, degree: int, values: dict) -> str:
    """A moment sequence in the CLI's input schema."""
    moments = [{"alpha": list(a), "value": values[a]} for a in multiindices(n, degree)]
    return json.dumps({"n": n, "degree": degree, "moments": moments}, indent=2)


def load_goldens(root: Path) -> dict[str, bytes]:
    return {name: (root / "tests" / "golden" / name).read_bytes() for name in GOLDEN_NAMES}


def gen_cli(seed: int, cycles: int, goldens: dict[str, bytes]) -> list[dict]:
    """``cycles`` repetitions of evolve, distance, recover, oracle, trajectory.

    The first three are the golden instances of acceptance criterion 11; the
    oracle mixture and the trajectory sequence are drawn from the seed.
    Each op lists its argv (``{in}``/``{out}`` are filled in by the runner)
    and the files it reads.
    """
    rng = np.random.default_rng([seed, 3])
    dirac = sequence_json(1, 2, {(0,): 1.0, (1,): 0.0, (2,): 0.0})
    two_atom = sequence_json(1, 4, {(j,): float(v) for j, v in enumerate((1, 0, 3, 0, 25))})
    three_atom = sequence_json(1, 6, {(j,): v for j, v in enumerate(RECOVER_GOLDEN_INPUT)})
    ops = []
    for c in range(cycles):
        ops.append({
            "argv": ["evolve", "--equation", "heat", "--t", "1", "--in", "{in}"],
            "files": {"in": dirac}, "out": "json", "envelope": True, "flow": True,
            "tag": "evolve",
            "want": {"golden": goldens["evolve.json"], "moments": [1.0, 0.0, 2.0]},
        })
        ops.append({
            "argv": ["distance", "--in", "{in}"],
            "files": {"in": two_atom}, "out": "json", "envelope": True, "tag": "distance",
            "want": {"golden": goldens["distance.json"]}, "t0": 1.0,
        })
        ops.append({
            "argv": ["recover", "--in", "{in}"],
            "files": {"in": three_atom}, "out": "json", "envelope": True, "tag": "recover",
            "want": {"golden": goldens["recover.json"]}, "t0": RECOVER_GOLDEN_T0,
        })
        n = int(rng.integers(1, 4))
        ncomp = int(rng.integers(2, 5))
        nu = float(rng.uniform(0.2, 1.5))
        comps = [
            ([float(x) for x in rng.uniform(-2, 2, size=n)],
             float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 2.0)))
            for _ in range(ncomp)
        ]
        mixture = {"type": "gaussian_mixture", "n": n, "nu": nu,
                   "components": [{"center": cc, "weight": w, "time": t} for cc, w, t in comps]}
        exact = mixture_moments([(tuple(cc), w, t) for cc, w, t in comps], nu, multiindices(n, 6))
        ops.append({
            "argv": ["oracle", "--measure", "{in}", "--degree", "6"],
            "files": {"in": json.dumps(mixture)}, "out": "json", "envelope": True,
            "tag": "oracle", "want": {"sequence": exact},
        })
        idx = multiindices(2, 8)
        s = {alpha: float(v) for alpha, v in zip(idx, rng.normal(size=len(idx)))}
        tnu = float(rng.uniform(0.2, 1.5))
        a = [float((1 - 2 * int(rng.integers(2))) * rng.uniform(0.2, 1.0)) for _ in range(2)]
        ops.append({
            # "--a=" form: argparse reads "--a -0.5,0.3" as a missing value
            "argv": ["trajectory", "--equation", "combined", "--nu", repr(tnu),
                     "--a=" + ",".join(repr(x) for x in a), "--t0", "0", "--t1", "1",
                     "--steps", str(TRAJ_STEPS), "--in", "{in}"],
            "files": {"in": sequence_json(2, 8, s)}, "out": "csv", "envelope": True,
            "flow": True, "tag": "trajectory", "want": {"s": s, "nu": tnu, "a": a},
        })
    return ops


def _exact_distance_report() -> dict:
    """The worked instance (1,0,3,0,25): distance 1, boundary (1,0,1,0,1)."""
    return {"distance": 1.0, "upper_bound": 1.5, "boundary": [1.0, 0.0, 1.0, 0.0, 1.0],
            "kernel_poly": [-1.0, 0.0, 1.0]}


def _sequence_values(data: dict) -> dict:
    return {tuple(int(x) for x in m["alpha"]): _finite(m["value"]) for m in data["moments"]}


def check_cli(op: dict, code: int, output: bytes | None) -> tuple[float, bool]:
    """Scaled error of one CLI op's output and whether the op passed.

    A non-zero exit code, a missing or malformed output file, or (for the
    golden instances) any byte differing from the golden file fails the op.
    """
    if code != 0:
        raise InvalidOutput(f"exit code {code}")
    if output is None:
        raise InvalidOutput("no output file written")
    want = op["want"]
    err, ok = _cli_error(op, output)
    if "golden" in want and output != want["golden"]:
        return err, False
    return err, ok


def _cli_error(op: dict, output: bytes) -> tuple[float, bool]:
    want = op["want"]
    if op["out"] == "csv":
        return _check_trajectory(output.decode(), want)
    data = strict_json(output.decode())
    if op["tag"] == "evolve":
        vals = _sequence_values(data)
        return max(scaled_error(vals[(j,)], v) for j, v in enumerate(want["moments"])), True
    if op["tag"] == "distance":
        ex = _exact_distance_report()
        seq = _sequence_values(data["boundary_sequence"])
        pairs = [(_finite(data["distance"]), ex["distance"]),
                 (_finite(data["upper_bound"]), ex["upper_bound"])]
        pairs += [(seq[(j,)], v) for j, v in enumerate(ex["boundary"])]
        pairs += [(_finite(c), v) for c, v in zip(data["kernel_poly"], ex["kernel_poly"])]
        return max(scaled_error(g, w) for g, w in pairs), True
    if op["tag"] == "recover":
        out = {"delta": data["delta"],
               "atoms": [[a["point"][0], a["weight"]] for a in data["atoms"]]}
        atoms = RECOVER_GOLDEN_ATOMS
        return check_recover(out, {"t0": RECOVER_GOLDEN_T0, "atoms": [x for x, _ in atoms],
                                   "weights": [w for _, w in atoms]})
    vals = _sequence_values(data)  # oracle
    exact = want["sequence"]
    if set(vals) != set(exact):
        raise InvalidOutput("oracle output index set differs")
    worst = max(scaled_error(vals[a], exact[a]) for a in exact)
    return worst, worst <= MIXTURE_TOL


def _check_trajectory(text: str, want: dict) -> float:
    lines = text.strip().split("\n")
    header = lines[0].strip().split(",")
    if header[0] != "t" or len(lines) != TRAJ_STEPS + 2:
        raise InvalidOutput("trajectory CSV has the wrong shape")
    alphas = [tuple(int(x) for x in h.split("_")[1:]) for h in header[1:]]
    s = want["s"]
    if set(alphas) != set(s):
        raise InvalidOutput("trajectory columns differ from |alpha| <= 8")
    worst = 0.0
    for i, line in enumerate(lines[1:]):
        row = [_finite(float(x)) for x in line.strip().split(",")]
        t = row[0]
        if abs(t - i / TRAJ_STEPS) > 1e-15:
            raise InvalidOutput(f"row {i}: time {t} is off the grid")
        exact = flow_oracle(2, 8, s, want["nu"], want["a"], t)
        for alpha, v in zip(alphas, row[1:]):
            worst = max(worst, scaled_error(v, exact[alpha]))
    return worst, worst <= FLOW_TOL
