"""Moment flows: heat, transport, and their combination.

A flow maps every multi-index to an exponential polynomial in time whose
coefficients are built from the initial moments.  Heat entries are pure
polynomials in t (rate zero), transport entries single exponentials, and the
combined flow is assembled by the integral recursion

    s_a(t) = s_a(0) e^{-sum_j a_j (a_j+1) t}
           + nu * [ int_0..t (sum_j a_j(a_j-1) s_{a-2e_j}(tau))
                    e^{+sum_j a_j (a_j+1) tau} dtau ] * e^{-sum_j a_j (a_j+1) t}.

Measures evolve alongside: Gaussian mixtures shift their component times
under heat, atomic measures contract exponentially under transport, and dual
actions move the same evolution onto test polynomials.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Mapping, Sequence

from .core import (
    AtomicMeasure,
    GaussianMixture,
    MomentSequence,
    MultiIndex,
    Polynomial,
    Record,
    check_index_set,
    enumerate_multiindices,
)
from . import exppoly
from .exppoly import ExpPoly

HEAT = "heat"
TRANSPORT = "transport"
COMBINED = "combined"


class PastHorizonError(ValueError):
    """Requested a Gaussian-mixture time before the earliest representable one."""


class FlowParams(Record):
    kind: str
    nu: float
    a: tuple[float, ...]

    def __init__(self, kind: str, nu: float, a: Sequence[float]):
        a = tuple(float(x) for x in a)
        nu = float(nu)
        if kind == HEAT:
            if not nu > 0.0:
                raise ValueError(f"heat flow requires nu > 0, got {nu}")
            if any(x != 0.0 for x in a):
                raise ValueError("heat flow requires zero drift")
        elif kind == TRANSPORT:
            if nu != 0.0:
                raise ValueError(f"transport flow requires nu = 0, got {nu}")
        elif kind == COMBINED:
            if nu < 0.0:
                raise ValueError(f"combined flow requires nu >= 0, got {nu}")
        else:
            raise ValueError(f"unknown flow kind {kind!r}")
        d = self.__dict__
        d["kind"] = kind
        d["nu"] = nu
        d["a"] = a


class MomentFlow(Record):
    n: int
    degree: int
    params: FlowParams
    entries: Mapping[MultiIndex, ExpPoly]

    def __init__(self, n: int, degree: int, params: FlowParams,
                 entries: Mapping[MultiIndex, ExpPoly]):
        d = self.__dict__
        d["n"] = n
        d["degree"] = degree
        d["params"] = params
        d["entries"] = entries

    def entry(self, alpha: MultiIndex) -> ExpPoly:
        return self.entries[alpha]

    @cached_property
    def _plan(self) -> tuple[list[MultiIndex], exppoly.Plan]:
        """The entry indices in enumeration order and their evaluation plan.

        Built on the first evaluation and kept for the flow's lifetime, so a
        flow's ``entries`` must not change after it is evaluated.  The entry
        indices are checked here, as ``MomentSequence`` would check them, so
        that :func:`evaluate_flow` can build its results unchecked.
        """
        indices = check_index_set(self.n, self.degree, self.entries)
        entries = [self.entries[alpha] for alpha in indices]
        return indices, exppoly.compile_all(entries, self.params.a)


def _project_rate(vec: Sequence[int], a: Sequence[float]) -> tuple[int, ...]:
    # components with exactly zero drift carry no rate; storing them as zero
    # makes the combined flow reduce entry-for-entry to heat (a = 0) and
    # transport (nu = 0)
    return tuple(0 if aj == 0.0 else int(v) for v, aj in zip(vec, a))


def _descent_children(alpha: MultiIndex) -> list[tuple[int, MultiIndex]]:
    """Pairs ``(a_j * (a_j - 1), alpha - 2 e_j)`` over coordinates with a_j >= 2."""
    out = []
    for j, aj in enumerate(alpha):
        if aj >= 2:
            child = alpha[:j] + (aj - 2,) + alpha[j + 1 :]
            out.append((aj * (aj - 1), child))
    return out


def combined_flow(s: MomentSequence, nu: float, a: Sequence[float]) -> MomentFlow:
    """Flow for ``d/dt u = nu Lap u + a x . grad u`` via the integral recursion.

    Exactly-zero drift components reduce to pure heat behavior (resonant
    t-powers).  Tiny nonzero components are a near-resonant regime: the
    integration-by-parts coefficients grow like ``1 / rate**(k+1)`` and cancel
    at evaluation time, which costs precision roughly in proportion to that
    growth.
    """
    a = tuple(float(x) for x in a)
    if len(a) != s.n:
        raise ValueError(f"drift vector has length {len(a)}, expected {s.n}")
    params = FlowParams(COMBINED, nu, a)
    return MomentFlow(s.n, s.degree, params, _build_entries(s, nu, a))


def _build_entries(
    s: MomentSequence, nu: float, a: tuple[float, ...]
) -> dict[MultiIndex, ExpPoly]:
    n = s.n
    entries: dict[MultiIndex, ExpPoly] = {}
    for alpha in enumerate_multiindices(n, s.degree):  # graded order: children first
        m_alpha = _project_rate(tuple(-(aj + 1) for aj in alpha), a)
        parts = [exppoly.ExpPoly.single(n, s[alpha], 0, m_alpha)]
        coeffs = [1.0]
        if nu != 0.0:
            children = _descent_children(alpha)
            if children:
                integrand = exppoly.linear_combine(
                    [float(c) for c, _ in children],
                    [entries[child] for _, child in children],
                )
                mu = _project_rate(tuple(aj + 1 for aj in alpha), a)
                integral = exppoly.integrate_with_rate(integrand, mu, a)
                parts.append(exppoly.shift_rate(integral, m_alpha))
                coeffs.append(nu)
        entries[alpha] = exppoly.linear_combine(coeffs, parts)
    return entries


def heat_flow(s: MomentSequence, nu: float) -> MomentFlow:
    """Heat flow built by the degree-ascending moment recursion.

    Every entry is a polynomial in t with rate vector zero; the entry for
    ``alpha`` depends only on initial moments ``s_beta`` with ``beta <= alpha``.
    """
    if not nu > 0.0:
        raise ValueError(f"heat flow requires nu > 0, got {nu}")
    a = (0.0,) * s.n
    params = FlowParams(HEAT, nu, a)
    return MomentFlow(s.n, s.degree, params, _build_entries(s, nu, a))


def heat_flow_1d_closed(s: MomentSequence, nu: float) -> MomentFlow:
    """1-D heat flow from the closed binomial-factorial solution.

    Independent cross-check of :func:`heat_flow`:

        s_{2k}(t)   = sum_j (2k)! / ((2k-2j)! j!) s_{2k-2j}(0) (nu t)^j
        s_{2k+1}(t) = sum_j (2k+1)! / ((2k+1-2j)! j!) s_{2k+1-2j}(0) (nu t)^j
    """
    if s.n != 1:
        raise ValueError("closed-form heat flow requires n = 1")
    if not nu > 0.0:
        raise ValueError(f"heat flow requires nu > 0, got {nu}")
    entries: dict[MultiIndex, ExpPoly] = {}
    for (m,) in enumerate_multiindices(1, s.degree):
        terms = []
        for j in range(m // 2 + 1):
            factor = math.factorial(m) // (
                math.factorial(m - 2 * j) * math.factorial(j)
            )
            coeff = factor * s[(m - 2 * j,)] * nu**j
            if coeff != 0.0:
                terms.append(exppoly.Term(coeff, j, (0,)))
        entries[(m,)] = exppoly.canonicalize(ExpPoly(1, tuple(terms)))
    return MomentFlow(1, s.degree, FlowParams(HEAT, nu, (0.0,)), entries)


def transport_flow(s: MomentSequence, a: Sequence[float]) -> MomentFlow:
    """Transport flow: ``s_alpha(t) = s_alpha(0) exp(-sum_i a_i (alpha_i + 1) t)``."""
    a = tuple(float(x) for x in a)
    if len(a) != s.n:
        raise ValueError(f"drift vector has length {len(a)}, expected {s.n}")
    params = FlowParams(TRANSPORT, 0.0, a)
    entries = {
        alpha: ExpPoly.single(
            s.n, s[alpha], 0, _project_rate(tuple(-(aj + 1) for aj in alpha), a)
        )
        for alpha in enumerate_multiindices(s.n, s.degree)
    }
    return MomentFlow(s.n, s.degree, params, entries)


def evaluate_flow(F: MomentFlow, t: float) -> MomentSequence:
    """Evaluate every entry at ``t`` by running the flow's compiled plan.

    The plan is built once per flow (:attr:`MomentFlow._plan`), so repeated
    evaluations of one flow pay only the ``t``-dependent work.  At ``t = 0``
    this returns the initial sequence exactly.  When a power of ``t`` or an
    exponential overflows (``OverflowError``), or an entry sums ``inf`` and
    ``-inf`` (``ValueError``), the error is raised again with ``t`` in its
    message; an entry that overflows otherwise comes back infinite.
    """
    indices, plan = F._plan
    try:
        values = plan.run(t)
    except (OverflowError, ValueError) as exc:
        raise type(exc)(f"flow overflows at t = {t!r}: {exc}") from exc
    return MomentSequence._unchecked(F.n, F.degree, dict(zip(indices, values)))


def evolve_gaussian_mixture(g: GaussianMixture, t: float) -> GaussianMixture:
    """Shift every component time by ``t``; valid for ``t >= -min_i t_i``.

    At ``t = -min_i t_i`` the earliest components become point masses.  Times
    before that are refused: no mixture representation is available there.
    """
    tau = g.min_time
    if t < -tau:
        raise PastHorizonError(
            f"past horizon: t = {t} is below -min component time {-tau}"
        )
    comps = tuple((center, w, ti + t) for center, w, ti in g.components)
    return GaussianMixture(g.n, g.nu, comps)


def transport_atomic(mu: AtomicMeasure, a: Sequence[float], t: float) -> AtomicMeasure:
    """Push an atomic measure through the transport flow.

    Atom ``x`` moves to ``(x_j e^{-a_j t})_j`` and every weight is scaled by
    ``exp(-sum_j a_j t)``; the atom count is preserved for all real ``t``.
    """
    a = tuple(float(x) for x in a)
    if len(a) != mu.n:
        raise ValueError(f"drift vector has length {len(a)}, expected {mu.n}")
    wfactor = math.exp(-math.fsum(a) * t)
    scales = [math.exp(-aj * t) for aj in a]
    atoms = tuple(
        (tuple(x * c for x, c in zip(point, scales)), w * wfactor)
        for point, w in mu.atoms
    )
    return AtomicMeasure(mu.n, atoms)


def laplacian(p: Polynomial) -> dict[MultiIndex, float]:
    """Laplacian of a polynomial in coefficient form."""
    out: dict[MultiIndex, float] = {}
    for alpha, c in p.items():
        alpha = tuple(alpha)
        for j, aj in enumerate(alpha):
            if aj >= 2:
                beta = alpha[:j] + (aj - 2,) + alpha[j + 1 :]
                out[beta] = out.get(beta, 0.0) + aj * (aj - 1) * float(c)
    return {a: c for a, c in out.items() if c != 0.0}


def heat_dual_poly(p0: Polynomial, nu: float, t: float) -> dict[MultiIndex, float]:
    """Dual heat action on polynomials: ``p_t = sum_k (nu t)^k Lap^k p0 / k!``.

    The sum is finite (the Laplacian lowers degree by two) and the x-degree
    is preserved.  Satisfies the Riesz adjunction against the heat flow.
    """
    out = {tuple(a): float(c) for a, c in p0.items()}
    q: Mapping[MultiIndex, float] = out
    k = 0
    while True:
        q = laplacian(q)
        k += 1
        if not q:
            break
        factor = (nu * t) ** k / math.factorial(k)
        for alpha, c in q.items():
            out[alpha] = out.get(alpha, 0.0) + factor * c
    return out


def transport_dual_poly(
    p0: Polynomial, a: Sequence[float], t: float
) -> dict[MultiIndex, float]:
    """Dual transport action: coefficient of ``x^alpha`` scales by ``exp(sum_i a_i alpha_i t)``."""
    a = tuple(float(x) for x in a)
    out = {}
    for alpha, c in p0.items():
        alpha = tuple(alpha)
        if len(alpha) != len(a):
            raise ValueError(f"index {alpha} does not match drift dimension {len(a)}")
        out[alpha] = float(c) * math.exp(
            math.fsum(ai * xi for ai, xi in zip(a, alpha)) * t
        )
    return out
