"""Shared test utilities: the golden commands, random instances and an
independent ODE reference."""

import contextlib
import importlib.util
import itertools
from pathlib import Path

import numpy as np

from momentflow import MomentSequence, core, enumerate_multiindices, jsonio

ROOT = Path(__file__).resolve().parents[1]

# The four golden commands.  Run in a directory that write_golden_inputs has
# filled, with "--out <file>" appended, each writes tests/golden/<name>.
GOLDEN_COMMANDS = {
    "evolve.json": ["evolve", "--equation", "heat", "--t", "1", "--in", "dirac.json"],
    "distance.json": ["distance", "--in", "two_atom.json"],
    "recover.json": ["recover", "--in", "three_atom.json"],
    "trajectory.csv": ["trajectory", "--equation", "combined", "--nu", "0.5",
                       "--a", "-0.4,0.7", "--t0", "0", "--t1", "2", "--steps", "20",
                       "--in", "plane.json"],
}


def write_golden_inputs(directory):
    """Write the input files of GOLDEN_COMMANDS into ``directory``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def write(name, s):
        jsonio.dump_json(directory / name, jsonio.sequence_to_dict(s))

    write("dirac.json", MomentSequence.of_1d([1, 0, 0]))
    write("two_atom.json", MomentSequence.of_1d([1, 0, 3, 0, 25]))
    write("three_atom.json", MomentSequence.of_1d(workloads.RECOVER_GOLDEN_INPUT))
    write("plane.json", MomentSequence(2, 4, {a: (1 + a[0]) / (2 + a[1]) - 0.25 * a[0] * a[1]
                                              for a in enumerate_multiindices(2, 4)}))


def random_sequence(rng, n, d, scale=1.0):
    idx = enumerate_multiindices(n, d)
    return MomentSequence(n, d, {a: scale * rng.normal() for a in idx})


def random_integer_sequence(rng, n, d, lo=-9, hi=9):
    idx = enumerate_multiindices(n, d)
    return MomentSequence(n, d, {a: float(rng.integers(lo, hi + 1)) for a in idx})


@contextlib.contextmanager
def fresh_kernels():
    """Run with no compiled kernel and no sighted key; restore both after.

    Yields the kernel dict, keyed by ``(kind, key)``.  Both containers are
    emptied and refilled in place, since modules hold them by reference.
    """
    kernels, sighted = dict(core._KERNELS), set(core._SIGHTED)
    core._KERNELS.clear()
    core._SIGHTED.clear()
    try:
        yield core._KERNELS
    finally:
        core._KERNELS.clear()
        core._KERNELS.update(kernels)
        core._SIGHTED.clear()
        core._SIGHTED.update(sighted)


def hexed(value):
    """``value`` with each float as ``float.hex``: a list or tuple, or a
    record's fields, as a list of such values, anything else as it is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, core.Record):
        value = value._astuple()
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def outcome(fn, *args):
    """``fn(*args)`` as :func:`hexed`, or the repr of what it raised."""
    try:
        return hexed(fn(*args))
    except Exception as exc:  # a kernel must raise what its loop raises
        return repr(exc)


def kernel_against_loop(module, loop, kernel, *args):
    """``(outcome(kernel, *args), entered)``: ``entered`` says whether the
    kernel called its loop, ``module.<loop>``, which is how a kernel hands
    back.  The loop is counted for that one call and then restored."""
    real, calls = getattr(module, loop), []

    def counted(*a):
        calls.append(a)
        return real(*a)

    setattr(module, loop, counted)
    try:
        return outcome(kernel, *args), bool(calls)
    finally:
        setattr(module, loop, real)


def graded_indices(n, d):
    """All ``alpha`` with ``|alpha| <= d``, ordered by total degree: the
    reference's own enumeration, as ``perfbench/workloads.multiindices``."""
    return sorted(
        (a for a in itertools.product(range(d + 1), repeat=n) if sum(a) <= d),
        key=lambda a: (sum(a), tuple(-x for x in a)),
    )


def moment_ode_matrix(n, d, nu, a):
    """Generator of the combined moment ODE, ds/dt = M s, in graded index order.

    ds_alpha/dt = nu * sum_j alpha_j (alpha_j - 1) s_{alpha - 2 e_j}
                  - (sum_j a_j (alpha_j + 1)) s_alpha
    """
    idx = graded_indices(n, d)
    pos = {alpha: i for i, alpha in enumerate(idx)}
    M = np.zeros((len(idx), len(idx)))
    for alpha, i in pos.items():
        M[i, i] = -sum(aj * (alj + 1) for aj, alj in zip(a, alpha))
        for j, alj in enumerate(alpha):
            if alj >= 2:
                child = alpha[:j] + (alj - 2,) + alpha[j + 1 :]
                M[i, pos[child]] += nu * alj * (alj - 1)
    return M, idx


def reference_evolved(values, nu, a, t, rtol=1e-10, atol=1e-10):
    """Independent combined-flow reference: adaptive RK integration to time t.

    ``values`` maps every ``alpha`` with ``|alpha| <= d`` to its moment; the
    result maps them to the moments at time t.  Dense output is obtained by
    re-integrating from 0 for each requested t.
    """
    from scipy.integrate import solve_ivp

    n, d = len(next(iter(values))), max(map(sum, values))
    M, idx = moment_ode_matrix(n, d, nu, a)
    assert sorted(values) == sorted(idx), "values must cover exactly |alpha| <= d"
    y0 = np.array([float(values[alpha]) for alpha in idx])
    if t == 0.0:
        return dict(zip(idx, y0.tolist()))
    sol = solve_ivp(
        lambda _, y: M @ y, (0.0, t), y0, method="RK45", rtol=rtol, atol=atol
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return dict(zip(idx, sol.y[:, -1].tolist()))
