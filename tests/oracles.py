"""Exact oracles for the tests, independent of the library.

Every float is a binary rational, so these work in ``fractions.Fraction`` on
the float values and round, if at all, once at the end.  The module imports
the standard library only, never ``momentflow`` or numpy, which
``test_oracles.py`` checks, so a test that compares the library against it
compares two independent computations.
"""

import math
from fractions import Fraction


def mixture_moments(points, weights, var, degree):
    """Moments ``0 .. degree`` of ``sum_i w_i N(p_i, var)``, exact.

    Moment ``j`` of ``N(p, var)`` is ``sum_i C(j, 2i) p**(j-2i) var**i
    (2i-1)!!``.  Round with ``float`` for moments that are the exact mixture
    rounded once.
    """
    points, weights, var = list(map(Fraction, points)), list(map(Fraction, weights)), Fraction(var)
    return [sum(w * sum(math.comb(j, 2 * i) * p ** (j - 2 * i) * var**i
                        * math.prod(range(1, 2 * i, 2)) for i in range(j // 2 + 1))
                for p, w in zip(points, weights))
            for j in range(degree + 1)]


def psd_rank(moments):
    """Rank of the Hankel matrix of ``moments`` if it is PSD, else ``None``.

    LDL^T with diagonal pivoting: the Schur complement of a positive pivot of
    a PSD matrix is PSD, and a PSD matrix whose diagonal is zero is zero, so
    a negative diagonal entry, or a zero diagonal under a nonzero entry, marks
    one that is not PSD.
    """
    s = [Fraction(v) for v in moments]
    size = len(s) // 2 + 1
    a = [[s[i + j] for j in range(size)] for i in range(size)]
    rank = 0
    while a:
        p = max(range(len(a)), key=lambda i: a[i][i])
        if min(a[i][i] for i in range(len(a))) < 0 or a[p][p] == 0 and any(map(any, a)):
            return None
        if a[p][p] == 0:
            return rank
        a = [[a[i][j] - a[i][p] * a[p][j] / a[p][p] for j in range(len(a)) if j != p]
             for i in range(len(a)) if i != p]
        rank += 1
    return rank


def hankel_times(moments, v):
    """``H v`` in exact arithmetic, ``H[i, j] = s_{i+j}``."""
    return [sum(Fraction(moments[i + j]) * Fraction(x) for j, x in enumerate(v))
            for i in range(len(v))]
