"""Heat distance to the moment-cone boundary and the boundary projection (n = 1).

Backward heat evolution of an interior 1-D sequence leaves the cone at a
finite time: the heat distance.  Along ``t -> s(-t)`` every moment is a
polynomial in t, read from the 1-D heat table of :mod:`.flows`, and the
Hankel matrix stays positive definite exactly on ``[0, distance)``: a
positive definite Hankel matrix marks an interior sequence (Curto & Fialkow
1991) and forward heat keeps interior points interior.  One Chebyshev pass
over the moments of ``s(-t)`` gives the LDL^T pivots, and its last ``beta``
is positive exactly while every pivot is, so the a-priori interval
``[0, upper_bound]`` brackets a single sign change of that probe, found by
safeguarded regula falsi.  The same table summed at the crossing is the
boundary sequence; its monic orthogonal polynomial is the kernel polynomial
and its Gauss rule gives the boundary atoms.  Everything here is pure Python.

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
import warnings
from collections.abc import Callable, Sequence

# the search kernels call chain_sum, as they run in this module's globals
from .core import DEFAULT_DISTANCE_TOL, MomentSequence, Record, chain_sum, sighted_kernel
# heat_flow, evaluate_flow, build_hankel and classify_psd are unused here; they
# are imported only because perfbench/spans.py wraps these module attributes
from .flows import _heat_table_1d, evaluate_flow, heat_flow
from .hankel import (
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
    ``NotInteriorError`` naming the first one, and a bound that is not a
    float (a denominator of 0 or inf, or an infinite quotient) raises
    ``OverflowError`` naming ``nu`` and ``s_0``.
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
    second = math.fsum([vals[alpha] for alpha in diagonal])
    den = 2.0 * s.n * s0 * nu
    bound = second / den if 0.0 < den < math.inf else math.inf
    if math.isinf(bound):
        part = "bound's denominator 2 n s_0 nu" if den == math.inf else "bound"
        raise OverflowError(f"the distance {part} overflows at nu = {nu!r}, s_0 = {s0!r}")
    return bound


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
    bracket ``[0, ub]`` holds one sign change.  Regula falsi with the
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
        raise BracketingError(
            f"root bracketing failed: no sign change of the pivot probe in [0, {ub}]; "
            f"beta_m(0) = {f0:.3e}, beta_m({ub}) = {f_hi:.3e}"
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


def _loop_search(
    s: MomentSequence, order: int, nu: float, tol: float
) -> tuple[float, float, tuple[float, ...]]:
    """``(distance, upper_bound, boundary values)`` of an even-degree ``s``.

    The interior test, the bound, the signed heat table, the regula falsi of
    :func:`_first_crossing` over :func:`_pivot_probe` and the boundary sums:
    the loops that the search kernel of the order unrolls, which also raise
    the errors of every path on which it hands back.
    """
    start = chebyshev(s.as_1d_tuple(), order)
    if not start.pivots[-1] > 0.0:
        raise NotInteriorError(
            f"not interior: Hankel pivot {len(start.pivots) - 1} is "
            f"{start.pivots[-1]:.3e}, not > 0"
        )
    ub = distance_upper_bound(s, nu)
    # s_m(-t) negates the odd powers of t; a zero entry enters as +0.0
    coef = [
        [(-c if j % 2 else c) if c else 0.0 for j, c in enumerate(r)]
        for r in _heat_table_1d(s, nu)
    ]
    distance = _first_crossing(
        lambda t: _pivot_probe(coef, order, t), ub, start.beta[-1], tol
    )
    # s_m(-D) = sum_j coef[m][j] D**j; a power is taken only for a nonzero
    # coefficient, so no power overflows that the sums would not take
    vals = tuple(
        math.fsum([c * distance**j for j, c in enumerate(r) if c]) for r in coef
    )
    return distance, ub, vals


def _check_rate_and_tol(nu: float, tol: float) -> None:
    for name, value in (("nu", nu), ("tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")


def _search_and_rule(
    s: MomentSequence, nu: float, tol: float
) -> tuple[float, float, tuple[float, ...], list[float], list[float], list[float]]:
    """``(distance, upper_bound, boundary values, nodes, weights, kernel_poly)``
    of a nonzero 1-D ``s`` of even degree >= 2: the order's search, then its rule."""
    order = s.degree // 2
    distance, ub, vals = (sighted_kernel("search", (order,)) or _loop_search)(s, order, nu, tol)
    return distance, ub, vals, *(sighted_kernel("rule", (order,)) or _loop_rule)(vals, order)


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

    distance, ub, vals, xs, ws, kpoly = _search_and_rule(s, nu, tol)
    # a full-rank boundary is a flat extension: its order atoms represent it
    return BoundaryReport(
        distance=distance,
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
