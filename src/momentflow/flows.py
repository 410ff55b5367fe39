"""Moment flows: heat, transport, and their combination.

A flow maps every multi-index to an exponential polynomial in time whose
coefficients are built from the initial moments.  Heat entries are pure
polynomials in t (rate zero), transport entries single exponentials.  All
three flows come from one integral recursion, of which heat is the case
``a = 0`` and transport the case ``nu = 0``:

    s_a(t) = s_a(0) e^{-sum_j a_j (a_j+1) t}
           + nu * [ int_0..t (sum_j a_j(a_j-1) s_{a-2e_j}(tau))
                    e^{+sum_j a_j (a_j+1) tau} dtau ] * e^{-sum_j a_j (a_j+1) t}.

In 1-D, heat also has a closed coefficient table,
:func:`.core._heat_table_1d`, which the heat distance reads directly and
:func:`heat_flow_1d_closed` wraps as a flow.

Measures evolve alongside: Gaussian mixtures shift their component times
under heat, atomic measures contract exponentially under transport, and dual
actions move the same evolution onto test polynomials.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import chain

from .core import (
    AtomicMeasure,
    GaussianMixture,
    MomentSequence,
    MultiIndex,
    Polynomial,
    Record,
    _heat_table_1d,
    check_index_set,
    enumerate_multiindices,
)
from . import exppoly
from .exppoly import ExpPoly, Term

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
        flow's ``entries`` must not change after it is evaluated.
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


def _flow(kind: str, s: MomentSequence, nu: float, a: Sequence[float]) -> MomentFlow:
    """Every flow's constructor: validate, then run the integral recursion."""
    params = FlowParams(kind, nu, a)
    if len(params.a) != s.n:
        raise ValueError(f"drift vector has length {len(params.a)}, expected {s.n}")
    return MomentFlow(s.n, s.degree, params, _build_entries(s, params.nu, params.a))


def combined_flow(s: MomentSequence, nu: float, a: Sequence[float]) -> MomentFlow:
    """Flow for ``d/dt u = nu Lap u + a x . grad u`` via the integral recursion.

    Exactly-zero drift components reduce to pure heat behavior (resonant
    t-powers).  Tiny nonzero components are a near-resonant regime: the
    integration-by-parts coefficients grow like ``1 / rate**(k+1)`` and cancel
    at evaluation time, which costs precision roughly in proportion to that
    growth.
    """
    return _flow(COMBINED, s, nu, a)


def _build_entries(
    s: MomentSequence, nu: float, a: tuple[float, ...]
) -> dict[MultiIndex, ExpPoly]:
    n = s.n
    entries: dict[MultiIndex, ExpPoly] = {}
    for alpha in enumerate_multiindices(n, s.degree):  # graded order: children first
        m_alpha = _project_rate(tuple(-(aj + 1) for aj in alpha), a)
        parts = [ExpPoly(n, (Term(s[alpha], 0, m_alpha),) if s[alpha] else ())]
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
    """Heat flow: the combined flow at zero drift.

    Every entry is a polynomial in t with rate vector zero; the entry for
    ``alpha`` depends only on initial moments ``s_beta`` with ``beta <= alpha``.
    """
    return _flow(HEAT, s, nu, (0.0,) * s.n)


def heat_flow_1d_closed(s: MomentSequence, nu: float) -> MomentFlow:
    """1-D heat flow from :func:`.core._heat_table_1d`.

    Independent cross-check of :func:`heat_flow`, which reaches the same
    polynomials through the integral recursion.
    """
    if s.n != 1:
        raise ValueError("closed-form heat flow requires n = 1")
    params = FlowParams(HEAT, nu, (0.0,))
    entries = {
        (m,): ExpPoly(1, tuple(Term(c, j, (0,)) for j, c in enumerate(row) if c != 0.0))
        for m, row in enumerate(_heat_table_1d(s.as_1d_tuple(), nu))
    }
    return MomentFlow(1, s.degree, params, entries)


def transport_flow(s: MomentSequence, a: Sequence[float]) -> MomentFlow:
    """Transport flow: ``s_alpha(t) = s_alpha(0) exp(-sum_i a_i (alpha_i + 1) t)``."""
    return _flow(TRANSPORT, s, 0.0, a)


def evaluate_flow(F: MomentFlow, t: float) -> MomentSequence:
    """Evaluate every entry at ``t`` by running the flow's compiled plan.

    The plan is built once per flow (:attr:`MomentFlow._plan`), so repeated
    evaluations of one flow pay only the ``t``-dependent work.  At ``t = 0``
    this returns the initial sequence exactly.  When a power of ``t`` or an
    exponential overflows (``OverflowError``), or an entry comes out infinite
    or sums ``inf`` and ``-inf`` (``ValueError``), the error is raised again
    with ``t`` in its message.
    """
    indices, plan = F._plan
    try:
        return MomentSequence(F.n, F.degree, dict(zip(indices, plan.run(t))))
    except (OverflowError, ValueError) as exc:
        raise type(exc)(f"flow overflows at t = {t!r}: {exc}") from exc


def _evaluate_grid(F: MomentFlow, ts: Sequence[float]) -> list[list[float]]:
    """Every entry's column over the times ``ts``, in the index order of ``F``.

    The bits are those of :func:`evaluate_flow` at each time
    (:meth:`exppoly.Plan.run_grid`).  When the grid raises or holds a value
    that is not finite, the times are evaluated again one by one, in order,
    so the error raised is :func:`evaluate_flow`'s at the first bad time.
    """
    try:
        cols = F._plan[1].run_grid(ts)
        if all(map(math.isfinite, chain.from_iterable(cols))):
            return cols
    except (OverflowError, ValueError):
        pass
    for t in ts:
        evaluate_flow(F, t)
    raise RuntimeError("the time grid fails to evaluate, but each of its times evaluates")


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
        for w, beta in _descent_children(tuple(alpha)):
            out[beta] = out.get(beta, 0.0) + w * float(c)
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
