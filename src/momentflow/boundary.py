"""Heat distance to the moment-cone boundary and the boundary projection (n = 1).

Backward heat evolution of an interior 1-D sequence leaves the cone at a
finite time: the heat distance.  Along ``t -> s(-t)`` every moment is a
polynomial in the clock ``u = nu t``, read from the 1-D heat table
:func:`.core._heat_table_1d` at nu = 1, so the search and the rule run on
``u`` and ``nu`` enters once, as ``distance = u / nu`` (:func:`_unclock`).
Heat flow also commutes with the scales of mass and length, so both run on
the moments standardized by powers of two, and their results are mapped back
exactly (:func:`_search_and_rule`).  The Hankel matrix
stays positive definite exactly on ``[0, distance)``: a positive definite
Hankel matrix marks an interior sequence (Curto & Fialkow 1991) and forward
heat keeps interior points interior.  One Chebyshev pass over the moments of
``s(-u)`` gives the LDL^T pivots, and its last ``beta`` is positive exactly
while every pivot is, so the a-priori interval ``[0, upper_bound]`` brackets
a single sign change of that probe, found by safeguarded regula falsi.  The
same table summed at the crossing is the boundary sequence; its monic
orthogonal polynomial is the kernel polynomial and its Gauss rule gives the
boundary atoms.  Everything here is pure Python.

The first distance of a Hankel order runs the loops (:func:`_loop_search`,
:func:`_loop_rule`); later ones run the order's search and rule kernels
(:mod:`.kernels`), which take the loops' arguments, run in this module's
globals and hand back by calling the loops.  The search kernel hands its
probe to the loops' one regula falsi, :func:`_first_crossing`.  A boundary
of full rank is a flat extension, so it is a moment sequence (Curto &
Fialkow 1991) and its interval is closed; only a degenerate boundary runs
the numerical membership test.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Callable, Sequence
from itertools import count, repeat

from .core import (
    DEFAULT_DISTANCE_TOL,
    MomentSequence,
    Record,
    _heat_table_1d,
    sighted_kernel,
)
# build_hankel and classify_psd are unused here; they are imported only
# because perfbench/spans.py wraps these module attributes
from .hankel import (
    Recurrence,
    build_hankel,
    chebyshev,
    classify_psd,
    gauss_rule,
    moment_slacks,
    monic_polynomial,
    numerical_rank,
)

# A bisection is forced when this many probes fail to halve the bracket.
STALL_PROBES = 4
# Hard cap on probes per distance.  It only guarantees termination:
# superlinear steps reach a bracket of adjacent floats far sooner, and forced
# bisections alone halve the bracket at least once per STALL_PROBES + 1 probes.
MAX_PROBES = 200


def __getattr__(name: str):
    # perfbench/spans.py also wraps heat_flow and evaluate_flow here, which
    # this module never calls; they resolve on first access, so the 1-D
    # pipeline loads no flow code
    if name in ("evaluate_flow", "heat_flow"):
        from . import flows

        return getattr(flows, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotInteriorError(ValueError):
    """The input sequence is not an interior point of the moment cone."""


class BracketingError(RuntimeError):
    """No sign change of the pivot probe on ``[0, upper_bound]``."""


class OddDegreeWarning(UserWarning):
    """An odd-degree input lost its top moment before the Hankel analysis."""


class BoundaryReport(Record):
    """Result of the boundary search.

    ``interval_closed`` distinguishes whether the cone-stay interval contains
    its left endpoint, i.e. whether the backward-evolved boundary sequence is
    itself a moment sequence.  It is read off the rank: a boundary of full
    rank is a flat extension and closed, and a degenerate one is closed when
    its Gauss rule reproduces every moment (:func:`_boundary_membership`).
    Trivial inputs (degree < 2 or the zero sequence) never leave the cone;
    they report an infinite distance.
    ``kernel_poly`` (low to high, padded with zeros to the Hankel order) is
    the monic orthogonal polynomial of the boundary sequence at its rank, and
    ``boundary_atoms`` the ``(point, weight)`` pairs of its Gauss rule: the
    atomic measure that matches every moment below the top one.  Both are
    ``None`` when there is no boundary.
    """

    distance: float
    interval_closed: bool
    boundary_sequence: MomentSequence
    kernel_poly: tuple[float, ...] | None
    upper_bound: float
    truncated_odd: bool
    boundary_atoms: tuple[tuple[float, float], ...] | None

    def __init__(
        self,
        distance: float,
        interval_closed: bool,
        boundary_sequence: MomentSequence,
        kernel_poly: Sequence[float] | None,
        upper_bound: float,
        truncated_odd: bool = False,
        boundary_atoms: tuple[tuple[float, float], ...] | None = None,
    ):
        d = self.__dict__
        d["distance"] = distance
        d["interval_closed"] = interval_closed
        d["boundary_sequence"] = boundary_sequence
        d["kernel_poly"] = None if kernel_poly is None else tuple(kernel_poly)
        d["upper_bound"] = upper_bound
        d["truncated_odd"] = truncated_odd
        d["boundary_atoms"] = boundary_atoms


def distance_upper_bound(s: MomentSequence, nu: float) -> float:
    """A-priori bound ``sum_i s_{2 e_i} / (2 n s_0 nu)`` on the heat distance.

    Derived from positivity of the evolved second moments.  Degrees 0 and 1
    impose no constraint and give infinity.  From degree 2 on, a negative
    ``s_{2 e_i}``, a diagonal entry of the degree-1 moment matrix, raises
    ``NotInteriorError`` naming the first one.  The binary exponents of the
    sum, ``s_0`` and ``nu`` are split off, and the quotient of their
    mantissas is mapped back once, so no intermediate leaves the float range:
    the bound is the quotient at the caller's scale wherever that and its
    denominator are normal floats, and a float wherever the bound is one.
    Where it is not, ``OverflowError`` names ``nu`` and ``s_0``.
    """
    if not nu > 0.0:
        raise ValueError(f"nu must be > 0, got {nu}")
    if s.degree < 2:
        return math.inf
    vals, zero = s.values, (0,) * s.n
    s0 = vals[zero]
    if s0 <= 0.0:
        raise ValueError(f"upper bound requires s_0 > 0, got {s0}")
    diagonal = [zero[:j] + (2,) + zero[j + 1:] for j in range(s.n)]
    for alpha in diagonal:
        if vals[alpha] < 0.0:
            raise NotInteriorError(f"not interior: moment s_{alpha} is {vals[alpha]!r}, not >= 0")
    second = [vals[alpha] for alpha in diagonal]
    try:
        total, shift = math.fsum(second), 0
    except OverflowError:  # n terms sum to below 2**shift times the float range
        shift = s.n.bit_length()
        total = math.fsum([math.ldexp(v, -shift) for v in second])
    (m2, e2), (m0, e0), (m, e) = map(math.frexp, (total, s0, nu))
    try:
        return math.ldexp(m2 / (2.0 * s.n * m0 * m), e2 + shift - e0 - e)
    except OverflowError:
        raise OverflowError(
            f"the distance bound overflows at nu = {nu!r}, s_0 = {s0!r}") from None


def _pivot_probe(coef: list[list[float]], order: int, t: float) -> float:
    """``beta_m = sigma_mm / sigma_{m-1,m-1}`` of the moments of ``s(-t)``.

    ``coef[m][j]`` is the coefficient of ``t**j`` in ``s_m(-t)``, for
    ``m = 0 .. 2 order`` and ``j = 0 .. m // 2``: Horner over each row, then
    :func:`chebyshev`.  It is positive exactly when the Hankel matrix of
    ``s(-t)`` is positive definite.  Where a lower pivot is not positive it is
    ``-inf``: the ``beta_k`` of that pivot would put a spurious zero beyond
    the crossing, where it changes sign, and draw regula falsi to it.
    """
    moments = []
    for row in coef:
        v = 0.0
        for c in reversed(row):
            v = v * t + c
        moments.append(v)
    rec = chebyshev(moments, order)
    return rec.beta[-1] if len(rec.alpha) == order else -math.inf


def _loop_rule(
    vals: Sequence[float], order: int
) -> tuple[list[float], list[float], list[float]]:
    """``(nodes, weights, kernel_poly)`` of the boundary.

    The Gauss rule of the boundary recurrence cut at its numerical rank, and
    the monic polynomial of the cut recurrence padded with zeros to the
    order: the loops that the rule kernel of the order unrolls
    (:func:`.kernels._rule_source`).  The rank is :func:`.hankel.numerical_rank`,
    at most ``order``; a smaller one marks a degenerate boundary, whose
    measure has fewer atoms.  A coarse search tolerance needs no larger rank
    threshold: the search ends where a vanishing lower pivot is <= 0.
    """
    rec = chebyshev(vals, order)
    rec = rec.cut(min(numerical_rank(vals, rec), order))
    xs, ws = gauss_rule(rec)
    kpoly = monic_polynomial(rec, len(xs))
    return xs, ws, kpoly + [0.0] * (order + 1 - len(kpoly))


def _boundary_membership(
    vals: Sequence[float], xs: Sequence[float], ws: Sequence[float]
) -> bool:
    """Test whether the Gauss-rule atoms reproduce every boundary moment.

    The Gauss rule has positive weights on real atoms and matches the moments
    ``0 .. 2 rank - 1`` by construction; the higher ones, the top moment
    among them, decide.  A strictly positive top-moment slack marks a
    PSD-singular sequence that is not a moment sequence, i.e. an open
    cone-stay interval.  :func:`heat_distance_1d` runs it on a degenerate
    boundary (a rank below the order) only, as one of full rank is closed.
    """
    slacks, within = moment_slacks(vals, xs, ws)
    return all(abs(d) <= within for d in slacks)


def _first_crossing(
    probe: Callable[[float], float], ub: float, f0: float, tol: float
) -> float:
    """Left end of ``{t in [0, ub] : probe(t) <= 0}``, within ``tol``.

    ``probe`` is positive exactly on ``[0, D)`` and ``f0 = probe(0)``, so the
    bracket ``[0, ub]`` holds one sign change; where a rounded ``ub`` falls
    short of a crossing on the exact bound, ``ub (1 + 2**-50)`` is probed
    once more before :class:`BracketingError`.  Regula falsi with the
    Anderson-Bjorck rescaling of the value kept at a stale end (Anderson &
    Bjorck, BIT 13, 1973) converges superlinearly from both sides at a
    simple crossing; a bisection step is forced whenever ``STALL_PROBES``
    probes fail to halve the bracket, which bounds the cost at a tangential
    crossing.  The loop stops when the bracket is narrower than ``tol``, when
    it spans adjacent floats, or after ``MAX_PROBES`` probes, and returns the
    end where ``probe <= 0``, so the kernel is visible there.  A probe of
    exactly 0 counts as ``<= 0``, like any other.
    """
    lo, hi = 0.0, ub
    f_lo, f_hi = f0, probe(ub)
    if not f_hi <= 0.0:
        f_ub, hi = f_hi, ub * (1.0 + 2.0**-50)
        f_hi = probe(hi)
        if not f_hi <= 0.0:
            raise BracketingError(
                f"root bracketing failed: no sign change of the pivot probe in [0, {ub}]; "
                f"beta_m(0) = {f0:.3e}, beta_m({ub}) = {f_ub:.3e}"
            )
    moved = 0  # +1 if the last probe moved lo, -1 if it moved hi
    widths = []  # bracket width before each probe: widths[n] before probe n
    for n in range(MAX_PROBES):
        width = hi - lo
        mid = lo + 0.5 * width
        if width <= tol or not lo < mid < hi:
            break
        # f_lo > 0 >= f_hi unless a scaled value underflowed or a probe was NaN
        t = lo + width * f_lo / (f_lo - f_hi) if f_lo > f_hi else mid
        stalled = n >= STALL_PROBES and width > 0.5 * widths[n - STALL_PROBES]
        if stalled or not lo < t < hi:
            t = mid
        widths.append(width)
        f = probe(t)
        if f > 0.0:
            if moved > 0:
                m = 1.0 - f / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo, moved = t, f, 1
        else:
            if moved < 0:
                # a probe can be exactly 0 (a pivot vanishing at a float)
                m = 1.0 - f / f_hi if f_hi != 0.0 else 0.0
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi, moved = t, f, -1
    return hi


def _interior_test(s: Sequence[float], order: int) -> Recurrence:
    """The Chebyshev pass over the moments ``s``; ``NotInteriorError``
    naming its last pivot where that is not positive."""
    rec = chebyshev(s, order)
    if not rec.pivots[-1] > 0.0:
        raise NotInteriorError(
            f"not interior: Hankel pivot {len(rec.pivots) - 1} is "
            f"{rec.pivots[-1]:.3e}, not > 0"
        )
    return rec


def _loop_search(
    s: Sequence[float], order: int, tol: float
) -> tuple[float, tuple[float, ...]]:
    """``(u, boundary values)`` of the even-degree moments ``s``: the crossing at nu = 1.

    The interior test, the bound ``s_2 / (2 s_0)`` at nu = 1, the signed heat
    table, the regula falsi of :func:`_first_crossing` over
    :func:`_pivot_probe` and the boundary sums: the loops that the search
    kernel of the order unrolls, which also raise the error of the interior
    test where it hands back.
    """
    start = _interior_test(s, order)
    # the interior test has rejected s_0 <= 0 and s_2 < 0
    ub = s[2] / (2.0 * s[0])
    # s_m(-t) negates the odd powers of t; a zero entry enters as +0.0
    coef = [
        [(-c if j % 2 else c) if c else 0.0 for j, c in enumerate(r)]
        for r in _heat_table_1d(s, 1.0)
    ]
    distance = _first_crossing(
        lambda t: _pivot_probe(coef, order, t), ub, start.beta[-1], tol
    )
    # s_m(-D) = sum_j coef[m][j] D**j; on standardized moments D < 2
    powers = [distance**j for j in range(order + 1)]
    vals = tuple(math.fsum([c * p for c, p in zip(r, powers) if c]) for r in coef)
    return distance, vals


def _check_rate_and_tol(nu: float, tol: float) -> None:
    for name, value in (("nu", nu), ("tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")


def _scale(s: Sequence[float]) -> tuple[int, int]:
    """``(p, k)`` that put ``s_0`` in ``[1/2, 1)`` and ``s_2`` in ``[1/2, 2)``
    under ``s_m / 2**(p + k m)``, read off the binary exponents, as ``s_2 / s_0``
    can overflow; the identity ``(0, 0)`` unless ``s_0 > 0`` and ``s_2 > 0``."""
    if not (s[0] > 0.0 and s[2] > 0.0):
        return 0, 0
    p = math.frexp(s[0])[1]
    return p, (math.frexp(s[2])[1] - p) // 2


def _search_and_rule(
    s: Sequence[float], tol_u: float, cap: float = math.inf
) -> tuple[float, tuple[float, ...], list[float], list[float], list[float]]:
    """``(u, boundary values, nodes, weights, kernel_poly)`` of the nonzero
    moments ``s`` of even degree >= 2: the order's search, then its rule.

    Heat flow commutes with the clock ``u = nu t`` and with scaling the mass
    by ``W`` and the length by ``L`` (``u`` by ``L**2``).  So neither takes
    ``nu``, and both run on the standardized ``s_m / 2**(p + k m)``
    (:func:`_scale`), whose bound ``s_2 / (2 s_0)`` is below 2, to the width
    ``tol_u / 4**k`` in ``u`` (``inf`` where that overflows) or ``cap`` times
    that bound if less.  Their results map back exactly (rounded once below
    the normal range, ``OverflowError`` beyond it): ``u`` by ``4**k``,
    moment ``m`` by ``2**(p + k m)``, nodes by ``2**k``, weights by ``2**p``
    and coefficient ``i`` of the degree-``r`` kernel polynomial by
    ``2**(k (r - i))``.  Where scaling or the standardized search or rule
    raises, both run on ``s`` itself, so an error quotes the caller's units.
    Not on a mass ``s_0`` below the normal range, where that search would
    run on a few bits: there only its interior test runs, and past it an
    ``OverflowError`` names ``s_0``, the scale and the standardized failure.
    """
    order = (len(s) - 1) // 2
    search = sighted_kernel("search", (order,)) or _loop_search

    def run(vals, width):
        u, b = search(vals, order, width)
        return u, b, *(sighted_kernel("rule", (order,)) or _loop_rule)(b, order)

    p, k = _scale(s)
    ldexp = math.ldexp
    try:
        scaled = list(map(ldexp, s, count(-p, -k)))
        width = math.inf if math.frexp(tol_u)[1] - 2 * k > 1024 else ldexp(tol_u, -2 * k)
        u, b, xs, ws, kpoly = run(scaled, min(width, cap * scaled[2] / (2.0 * scaled[0])))
    except (ArithmeticError, ValueError, BracketingError) as exc:
        if s[0] >= sys.float_info.min:
            return run(s, tol_u)  # which raises again, in the caller's units, or answers
        _interior_test(s, order)
        raise OverflowError(
            f"the mass s_0 = {s[0]!r} is below the normal range, where the search on the "
            f"moments as given runs on a few bits, and on the moments standardized by "
            f"2**{-p} in mass and 2**{-k} in length it fails: {exc}") from None
    try:
        return (ldexp(u, 2 * k), tuple(map(ldexp, b, count(p, k))),
                list(map(ldexp, xs, repeat(k))), list(map(ldexp, ws, repeat(p))),
                list(map(ldexp, kpoly, count(k * len(xs), -k))))
    except OverflowError:
        raise OverflowError(
            f"the boundary is beyond the float range: the standardized crossing {u!r}, "
            f"atoms {xs}, weights {ws} and kernel {kpoly} scale by 2**{k} in length and "
            f"2**{p} in mass") from None


def _unclock(u: float, nu: float) -> float:
    """The time ``u / nu`` of the clock ``u = nu t``; ``OverflowError`` naming
    ``nu`` where it is beyond the float range."""
    t = u / nu
    if t == math.inf:
        raise OverflowError(f"the heat distance {u!r} / nu overflows at nu = {nu!r}")
    return t


def heat_distance_1d(
    s: MomentSequence, nu: float, tol: float = DEFAULT_DISTANCE_TOL
) -> BoundaryReport:
    """Locate the heat distance of an interior 1-D sequence.

    Finds the sign change of the pivot probe of the backward-evolved
    sequence on ``[0, upper_bound]`` with a safeguarded bracketed root, down
    to a bracket of width ``tol``.  Sequences of odd top degree are truncated
    to the even part (flagged on the report).
    """
    if s.n != 1:
        raise ValueError("heat distance is implemented for n = 1 only")
    _check_rate_and_tol(nu, tol)
    truncated = False
    if s.degree % 2 == 1:
        warnings.warn(
            f"odd top degree {s.degree}: dropping the top moment for Hankel analysis",
            OddDegreeWarning,
            stacklevel=2,
        )
        s = s.truncate(s.degree - 1)
        truncated = True
    if s.degree < 2 or s.is_zero():
        return BoundaryReport(
            distance=math.inf, interval_closed=True, boundary_sequence=s,
            kernel_poly=None, upper_bound=math.inf, truncated_odd=truncated,
        )

    u, vals, xs, ws, kpoly = _search_and_rule(s.as_1d_tuple(), tol * nu)
    ub = distance_upper_bound(s, nu)
    # a full-rank boundary is a flat extension: its order atoms represent it
    return BoundaryReport(
        # a crossing on the bound can be found just past its rounding
        # (_first_crossing), and u / nu rounds apart from the bound at nu
        distance=min(_unclock(u, nu), ub),
        interval_closed=len(xs) == s.degree // 2 or _boundary_membership(vals, xs, ws),
        boundary_sequence=MomentSequence.of_1d(vals),
        kernel_poly=kpoly,
        upper_bound=ub,
        truncated_odd=truncated,
        boundary_atoms=tuple(zip(xs, ws)),
    )


def boundary_project(
    s: MomentSequence, nu: float, tol: float = DEFAULT_DISTANCE_TOL
) -> tuple[MomentSequence, float]:
    """Project to the cone boundary: returns ``(boundary sequence, distance)``.

    Forward heat evolution of the boundary sequence by the returned distance
    reproduces ``s``.
    """
    report = heat_distance_1d(s, nu, tol=tol)
    return report.boundary_sequence, report.distance
