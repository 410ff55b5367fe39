"""Exponential polynomials ``sum c * t**k * exp((m . a) t)`` with integer rates.

The rate of each term is an integer vector ``m``; the realized exponential
rate is the dot product with an ambient parameter vector ``a`` supplied at
evaluation or integration time.  Heat flows live entirely at rate zero (pure
polynomials in t), transport flows are pure exponentials, and the combined
flow mixes both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Term:
    """One summand ``coeff * t**power * exp((rate . a) t)``.

    A term flagged ``resonant`` realizes its exponential rate as exactly zero
    regardless of the stored integer vector; the vector is kept so that
    integrations remain auditable.
    """

    coeff: float
    power: int
    rate: tuple[int, ...]
    resonant: bool = False


@dataclass(frozen=True)
class ExpPoly:
    n: int
    terms: tuple[Term, ...]

    @classmethod
    def zero(cls, n: int) -> "ExpPoly":
        return cls(n, ())

    @classmethod
    def constant(cls, n: int, c: float) -> "ExpPoly":
        if c == 0.0:
            return cls.zero(n)
        return cls(n, (Term(float(c), 0, (0,) * n),))

    @classmethod
    def single(cls, n: int, coeff: float, power: int, rate: Sequence[int],
               resonant: bool = False) -> "ExpPoly":
        rate = tuple(int(r) for r in rate)
        if len(rate) != n:
            raise ValueError(f"rate vector {rate} does not have dimension {n}")
        if coeff == 0.0:
            return cls.zero(n)
        return cls(n, (Term(float(coeff), int(power), rate, resonant),))

    @property
    def degree_in_t(self) -> int:
        """Largest t-power present; -1 for the zero function."""
        return max((t.power for t in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms


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
    """Evaluate at time ``t`` with rate parameters ``a``.

    Exponentials are computed once per distinct realized rate; the final sum
    is exactly rounded (fsum), so cancellations between the exponential part
    and the constant part of a definite integral are exact at t = 0.
    """
    if len(a) != f.n:
        raise ValueError(f"rate parameters have length {len(a)}, expected {f.n}")
    exps: dict[float, float] = {}
    addends = []
    for term in f.terms:
        r = 0.0 if term.resonant else _dot(term.rate, a)
        e = exps.get(r)
        if e is None:
            e = math.exp(r * t)
            exps[r] = e
        addends.append(term.coeff * t**term.power * e)
    return math.fsum(addends)


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
    residue (below ``res_tol``) suppressed at integration time.
    """
    mu = tuple(int(m) for m in mu)
    if len(mu) != f.n:
        raise ValueError(f"shift vector {mu} does not have dimension {f.n}")
    terms = tuple(
        Term(t.coeff, t.power, tuple(m + s for m, s in zip(t.rate, mu)))
        for t in f.terms
    )
    return canonicalize(ExpPoly(f.n, terms))


def default_res_tol(a: Sequence[float]) -> float:
    return 1e-12 * (1.0 + math.fsum(abs(x) for x in a))


def integrate_with_rate(
    f: ExpPoly,
    mu: Sequence[int],
    a: Sequence[float],
    res_tol: float | None = None,
) -> ExpPoly:
    """Definite integral ``int_0..t f(tau) * exp((mu . a) tau) dtau`` as an ExpPoly.

    Terms whose combined realized rate vanishes (within ``res_tol``) are
    resonant and gain one t-power; all others integrate by parts to the
    standard exponential-polynomial antiderivative, with the lower limit
    contributing a rate-zero constant term.
    """
    mu = tuple(int(m) for m in mu)
    if len(mu) != f.n or len(a) != f.n:
        raise ValueError("dimension mismatch between polynomial, mu, and a")
    if res_tol is None:
        res_tol = default_res_tol(a)
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
