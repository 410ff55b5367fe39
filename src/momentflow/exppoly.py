"""Exponential polynomials ``sum c * t**k * exp((m . a) t)`` with integer rates.

The rate of each term is an integer vector ``m``; the realized exponential
rate is the dot product with an ambient parameter vector ``a`` supplied at
evaluation or integration time.  Heat flows live entirely at rate zero (pure
polynomials in t), transport flows are pure exponentials, and the combined
flow mixes both.

Evaluation is split in two.  :func:`compile_all` does the work that does not
depend on ``t``, once per set of polynomials and ``a``: it checks the
dimension, realizes each distinct rate once and flattens every polynomial to
``(coeff, power, rate slot)`` triples.  :meth:`Plan.run` then evaluates at one
``t`` with one exponential per rate slot and one table of powers of ``t``, and
:meth:`Plan.run_grid` evaluates the same bits over a grid of times.
:func:`evaluate` is compile followed by run on one polynomial.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import mul

from .core import Record


class Term(Record):
    """One summand ``coeff * t**power * exp((rate . a) t)``.

    A term flagged ``resonant`` realizes its exponential rate as exactly zero
    regardless of the stored integer vector; the vector is kept so that
    integrations remain auditable.
    """

    coeff: float
    power: int
    rate: tuple[int, ...]
    resonant: bool

    def __init__(self, coeff: float, power: int, rate: tuple[int, ...],
                 resonant: bool = False):
        d = self.__dict__
        d["coeff"] = coeff
        d["power"] = power
        d["rate"] = rate
        d["resonant"] = resonant


class ExpPoly(Record):
    n: int
    terms: tuple[Term, ...]

    def __init__(self, n: int, terms: tuple[Term, ...]):
        d = self.__dict__
        d["n"] = n
        d["terms"] = terms


def canonicalize(f: ExpPoly) -> ExpPoly:
    """Merge equal ``(power, rate, resonant)`` terms and drop exact zeros.

    Coefficients are never pruned by an epsilon; only coefficients equal to
    zero disappear.
    """
    acc: dict[tuple[int, tuple[int, ...], bool], list[float]] = {}
    for t in f.terms:
        acc.setdefault((t.power, t.rate, t.resonant), []).append(t.coeff)
    terms = []
    for (power, rate, resonant), coeffs in acc.items():
        c = coeffs[0] if len(coeffs) == 1 else math.fsum(coeffs)
        if c != 0.0:
            terms.append(Term(c, power, rate, resonant))
    terms.sort(key=lambda t: (t.power, t.rate, t.resonant))
    return ExpPoly(f.n, tuple(terms))


def _dot(rate: tuple[int, ...], a: Sequence[float]) -> float:
    return math.fsum(m * x for m, x in zip(rate, a))


def evaluate(f: ExpPoly, a: Sequence[float], t: float) -> float:
    """Evaluate one polynomial at time ``t`` with rate parameters ``a``.

    This runs the one-polynomial :class:`Plan`, so the value is the same bits
    as that polynomial's entry in any shared-table evaluation.
    """
    return compile_all((f,), a).run(t)[0]


class Plan(Record):
    """The ``t``-independent part of evaluating polynomials against one ``a``.

    ``rates[k]`` is the realized rate of slot ``k``, and ``entries[i]`` lists
    polynomial ``i``'s terms as ``(coeff, power, slot)``.
    """

    rates: tuple[float, ...]
    entries: tuple[tuple[tuple[float, int, int], ...], ...]
    max_power: int

    def __init__(self, rates: tuple[float, ...],
                 entries: tuple[tuple[tuple[float, int, int], ...], ...],
                 max_power: int):
        d = self.__dict__
        d["rates"] = rates
        d["entries"] = entries
        d["max_power"] = max_power

    def run(self, t: float) -> list[float]:
        """Every polynomial's value at ``t``.

        Each addend is ``coeff * t**power * exp(rate * t)``, multiplied in
        that order, and each polynomial's sum is exactly rounded (fsum), so
        cancellations between the exponential part and the constant part of
        a definite integral are exact at t = 0.
        """
        e = [math.exp(r * t) for r in self.rates]
        pw = [t**p for p in range(self.max_power + 1)]
        fsum = math.fsum
        return [fsum([c * pw[p] * e[k] for c, p, k in terms]) for terms in self.entries]

    def run_grid(self, ts: Sequence[float]) -> list[list[float]]:
        """Every polynomial's column of values over the times ``ts``.

        ``run_grid(ts)[i][j]`` has the bits of ``run(ts[j])[i]``: the same
        products in the same order and the same fsum, except that
        ``c * t**0 * e`` is ``c * e`` (``c * 1.0`` is ``c`` for every float).
        It is slower than :meth:`run` at one time and breaks even at about 8.
        """
        N = len(ts)
        E = [list(map(math.exp, map(mul, repeat(r, N), ts))) for r in self.rates]
        PW = [None, *(list(map(pow, ts, repeat(p, N))) for p in range(1, self.max_power + 1))]
        cols = []
        for terms in self.entries:
            parts = [map(mul, repeat(c, N), E[k]) if p == 0
                     else map(mul, map(mul, repeat(c, N), PW[p]), E[k])
                     for c, p, k in terms]
            cols.append(list(map(math.fsum, zip(*parts))) if parts else [0.0] * N)
        return cols


def compile_all(fs: Iterable[ExpPoly], a: Sequence[float]) -> Plan:
    """Flatten ``fs`` into a :class:`Plan` for rate parameters ``a``.

    Rate slots are keyed by rate vector, with one more slot (key ``None``)
    for every resonant term, whose realized rate is zero whatever its vector.
    So each distinct rate is realized once, however many polynomials carry it.
    """
    slots: dict[tuple[int, ...] | None, int] = {}
    rates: list[float] = []
    entries = []
    max_power = -1
    for f in fs:
        if len(a) != f.n:
            raise ValueError(f"rate parameters have length {len(a)}, expected {f.n}")
        terms = []
        for term in f.terms:
            key = None if term.resonant else term.rate
            k = slots.get(key)
            if k is None:
                k = slots[key] = len(rates)
                rates.append(0.0 if term.resonant else _dot(term.rate, a))
            terms.append((term.coeff, term.power, k))
            if term.power > max_power:
                max_power = term.power
        entries.append(tuple(terms))
    return Plan(tuple(rates), tuple(entries), max_power)


def linear_combine(coeffs: Sequence[float], fs: Sequence[ExpPoly]) -> ExpPoly:
    """Canonical ``sum_i coeffs[i] * fs[i]``."""
    if len(coeffs) != len(fs):
        raise ValueError("need equally many coefficients and polynomials")
    if not fs:
        raise ValueError("empty linear combination has no dimension")
    n = fs[0].n
    terms = []
    for c, f in zip(coeffs, fs):
        if f.n != n:
            raise ValueError("all polynomials must share the rate dimension")
        if c == 0.0:
            continue
        for t in f.terms:
            terms.append(Term(c * t.coeff, t.power, t.rate, t.resonant))
    return canonicalize(ExpPoly(n, tuple(terms)))


def shift_rate(f: ExpPoly, mu: Sequence[int]) -> ExpPoly:
    """Multiply by ``exp((mu . a) t)``, i.e. add ``mu`` to every rate vector.

    Resonance flags are dropped: after the shift the realized rate is taken
    from the stored vector again, which re-introduces at most the resonance
    residue (below the resonance tolerance of :func:`integrate_with_rate`)
    suppressed at integration time.
    """
    mu = tuple(int(m) for m in mu)
    if len(mu) != f.n:
        raise ValueError(f"shift vector {mu} does not have dimension {f.n}")
    terms = tuple(
        Term(t.coeff, t.power, tuple(m + s for m, s in zip(t.rate, mu)))
        for t in f.terms
    )
    return canonicalize(ExpPoly(f.n, terms))


def integrate_with_rate(f: ExpPoly, mu: Sequence[int], a: Sequence[float]) -> ExpPoly:
    """Definite integral ``int_0..t f(tau) * exp((mu . a) tau) dtau`` as an ExpPoly.

    Terms whose combined realized rate vanishes, to within
    ``1e-12 * (1 + sum_j |a_j|)``, are resonant and gain one t-power; all
    others integrate by parts to the standard exponential-polynomial
    antiderivative, with the lower limit contributing a rate-zero constant
    term.
    """
    mu = tuple(int(m) for m in mu)
    if len(mu) != f.n or len(a) != f.n:
        raise ValueError("dimension mismatch between polynomial, mu, and a")
    res_tol = 1e-12 * (1.0 + math.fsum(abs(x) for x in a))
    mu_rate = _dot(mu, a)
    zero = (0,) * f.n
    out: list[Term] = []
    for term in f.terms:
        base = 0.0 if term.resonant else _dot(term.rate, a)
        r = base + mu_rate
        stored = tuple(m + s for m, s in zip(term.rate, mu))
        c, k = term.coeff, term.power
        if r == 0.0:
            # exact resonance; flag only if the stored vector realizes nonzero
            out.append(Term(c / (k + 1), k + 1, stored, _dot(stored, a) != 0.0))
        elif abs(r) <= res_tol:
            # near resonance: realize the rate as exactly zero, keep the vector
            out.append(Term(c / (k + 1), k + 1, stored, True))
        else:
            # repeated integration by parts; pair the i = k coefficient with
            # its negation at the lower limit so they cancel exactly at t = 0
            for i in range(k + 1):
                coeff = c * (-1) ** i * math.factorial(k) / (
                    math.factorial(k - i) * r ** (i + 1)
                )
                out.append(Term(coeff, k - i, stored))
                if i == k:
                    out.append(Term(-coeff, 0, zero))
    return canonicalize(ExpPoly(f.n, tuple(out)))
