"""Seeded recoveries give the same bits on every supported Python.

From Python 3.12 on, builtin ``sum`` over floats compensates its rounding, so
it rounds differently from 3.10 and 3.11; the library sums left to right
instead (``core.chain_sum``).  This digest pins the bits of 300 recoveries.
It needs only the standard library, so it also runs as a script, which
prints the digest:

    PYTHONPATH=src python tests/test_digest.py
"""

import hashlib
import random
from fractions import Fraction
from math import comb, prod

from momentflow import MomentSequence, boundary, core, recover_gaussian_mixture, recovery

DIGEST = "c97893b42028"


def _inputs():
    """150 closed-form mixture sequences, k = 2..7 atoms, degree 2k, nu = 1.

    Each moment is computed exactly in rationals and rounded once.
    """
    rng = random.Random(16)
    out = []
    for i in range(150):
        k = 2 + i % 6
        xs = sorted(rng.uniform(-2.0, 2.0) for _ in range(k))
        ws = [rng.uniform(0.2, 1.0) for _ in range(k)]
        var = 2 * Fraction(rng.uniform(0.05, 1.0))
        moments = [
            float(sum(
                Fraction(w) * sum(comb(m, 2 * j) * Fraction(x) ** (m - 2 * j) * var**j
                                  * prod(range(1, 2 * j, 2)) for j in range(m // 2 + 1))
                for x, w in zip(xs, ws)
            ))
            for m in range(2 * k + 1)
        ]
        out.append(MomentSequence.of_1d(moments))
    return out


def _digest():
    """Each input recovered by the loops, then by the compiled kernels."""
    digest = hashlib.sha256()
    inputs = _inputs()
    modules = (core, boundary, recovery)
    saved = [m.sighted_kernel for m in modules]
    kernels, sighted = dict(core._KERNELS), set(core._SIGHTED)
    try:
        for policy in (lambda *a, **k: None, core.compiled_kernel):
            for m in modules:
                m.sighted_kernel = policy
            for s in inputs:
                try:
                    out = repr(recover_gaussian_mixture(s, 1.0))
                except (ArithmeticError, RuntimeError, ValueError) as exc:
                    out = type(exc).__name__
                digest.update(out.encode())
    finally:
        for m, policy in zip(modules, saved):
            m.sighted_kernel = policy
        core._KERNELS.clear()
        core._KERNELS.update(kernels)
        core._SIGHTED.clear()
        core._SIGHTED.update(sighted)
    return digest.hexdigest()[:12]


def test_recovery_digest_is_the_same_on_every_python():
    assert _digest() == DIGEST


if __name__ == "__main__":
    print(_digest())
