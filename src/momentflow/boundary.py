"""Heat distance to the moment-cone boundary and the boundary projection (n = 1).

Backward heat evolution of an interior 1-D sequence leaves the cone at a
finite time: the heat distance.  Along ``t -> s(-t)`` every moment is a
polynomial in t, and the Hankel matrix stays positive definite exactly on
``[0, distance)``: a positive definite Hankel matrix marks an interior
sequence (Curto & Fialkow 1991) and forward heat keeps interior points
interior.  One Chebyshev pass over the moments of ``s(-t)`` gives the LDL^T
pivots, and its last ``beta`` is positive exactly while every pivot is, so
the a-priori interval ``[0, upper_bound]`` brackets a single sign change of
that probe, found by safeguarded regula falsi.  At the crossing, the monic
orthogonal polynomial of the boundary sequence is the kernel polynomial and
its Gauss rule gives the boundary atoms.  Everything here is pure Python.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

from .core import DEFAULT_DISTANCE_TOL, MomentSequence, Record
# heat_flow, build_hankel and classify_psd are unused here; perfbench/spans.py
# wraps these module attributes
from .flows import MomentFlow, evaluate_flow, heat_flow, heat_flow_1d_closed
from .hankel import (
    Recurrence,
    build_hankel,
    chebyshev,
    classify_psd,
    gauss_rule,
    monic_polynomial,
)

DEFAULT_MEMBERSHIP_TOL = 1e-6
# A bisection is forced when this many probes fail to halve the bracket.
STALL_PROBES = 4
# Hard cap on probes per distance.  It only guarantees termination:
# superlinear steps reach a bracket of adjacent floats far sooner, and forced
# bisections alone halve the bracket at least once per STALL_PROBES + 1 probes.
MAX_PROBES = 200
# At the located crossing a lower beta_k (a squared length) below this, times
# 1 + s_2 / s_0, counts as zero.  A tangential crossing resolves the distance
# only to about sqrt(eps), and a vanishing beta_k is that small there too.
BOUNDARY_RANK_TOL = 1e-6


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
    itself a moment sequence.  Trivial inputs (degree < 2 or the zero
    sequence) never leave the cone; they report an infinite distance.
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
    impose no constraint and give infinity.
    """
    if not nu > 0.0:
        raise ValueError(f"nu must be > 0, got {nu}")
    if s.degree < 2:
        return math.inf
    s0 = s[(0,) * s.n]
    if s0 <= 0.0:
        raise ValueError(f"upper bound requires s_0 > 0, got {s0}")
    second = math.fsum(
        s[tuple(2 if i == j else 0 for i in range(s.n))] for j in range(s.n)
    )
    return second / (2.0 * s.n * s0 * nu)


def backward_moment_coefficients(F: MomentFlow) -> list[list[float]]:
    """``c[m][j]`` with ``s_m(-t) = sum_j c[m][j] t**j`` for a 1-D heat flow."""
    coef = [[0.0] * (m // 2 + 1) for m in range(F.degree + 1)]
    for (m,), f in F.entries.items():
        for term in f.terms:
            coef[m][term.power] = term.coeff if term.power % 2 == 0 else -term.coeff
    return coef


def _pivot_probe(coef: list[list[float]], order: int, t: float) -> float:
    """``beta_m = sigma_mm / sigma_{m-1,m-1}`` of the moments of ``s(-t)``.

    It is positive exactly when the Hankel matrix of ``s(-t)`` is positive
    definite.  Where a lower pivot is not positive it is ``-inf``: the
    ``beta_k`` of that pivot would put a spurious zero beyond the crossing,
    where it changes sign, and draw regula falsi to it.
    """
    moments = []
    for c in coef:
        v = 0.0
        for x in reversed(c):
            v = v * t + x
        moments.append(v)
    rec = chebyshev(moments, order)
    return rec.beta[-1] if len(rec.alpha) == order else -math.inf


def _boundary_rule(
    vals: Sequence[float], order: int, tol: float
) -> tuple[Recurrence, list[float], list[float]]:
    """The boundary recurrence cut at its numerical rank, and its Gauss rule.

    The rank is the first ``k >= 1`` whose ``beta_k`` is at most
    ``max(BOUNDARY_RANK_TOL, 100 tol)`` times ``1 + s_2 / s_0``, or
    ``order``.  A smaller rank than ``order`` marks a degenerate boundary,
    whose measure has fewer atoms.
    """
    rec = chebyshev(vals, order)
    tiny = max(BOUNDARY_RANK_TOL, 100.0 * tol) * (1.0 + abs(vals[2] / vals[0]))
    rank = next(
        (k for k in range(1, len(rec.alpha)) if rec.beta[k] <= tiny), len(rec.alpha)
    )
    rec = Recurrence(rec.alpha[:rank], rec.beta[: rank + 1], rec.pivots[: rank + 1])
    return (rec, *gauss_rule(rec))


def _boundary_membership(
    vals: Sequence[float], xs: Sequence[float], ws: Sequence[float], mem_tol: float
) -> bool:
    """Test whether the Gauss-rule atoms reproduce every boundary moment.

    The Gauss rule has positive weights on real atoms and matches the moments
    ``0 .. 2 rank - 1`` by construction; the higher ones, the top moment
    among them, decide.  A strictly positive top-moment slack marks a
    PSD-singular sequence that is not a moment sequence, i.e. an open
    cone-stay interval.
    """
    mscale = 1.0 + max(abs(x) for x in vals)
    return all(
        abs(v - math.fsum(w * x**j for x, w in zip(xs, ws))) <= mem_tol * mscale
        for j, v in enumerate(vals)
    )


def _trivial_report(s: MomentSequence, nu: float, truncated: bool) -> BoundaryReport:
    try:
        ub = distance_upper_bound(s, nu) if not s.is_zero() else math.inf
    except ValueError:
        ub = math.inf
    return BoundaryReport(
        distance=math.inf,
        interval_closed=True,
        boundary_sequence=s,
        kernel_poly=None,
        upper_bound=ub,
        truncated_odd=truncated,
    )


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
    widths = []  # bracket width before each probe
    for _ in range(MAX_PROBES):
        width = hi - lo
        mid = lo + 0.5 * width
        if width <= tol or not lo < mid < hi:
            break
        # f_lo > 0 >= f_hi unless a scaled value underflowed or a probe was NaN
        t = lo + width * f_lo / (f_lo - f_hi) if f_lo > f_hi else mid
        stalled = len(widths) >= STALL_PROBES and width > 0.5 * widths[-STALL_PROBES]
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


def heat_distance_1d(
    s: MomentSequence,
    nu: float,
    tol: float = DEFAULT_DISTANCE_TOL,
    membership_tol: float = DEFAULT_MEMBERSHIP_TOL,
) -> BoundaryReport:
    """Locate the heat distance of an interior 1-D sequence.

    Finds the sign change of the pivot probe of the backward-evolved
    sequence on ``[0, upper_bound]`` with a safeguarded bracketed root, down
    to a bracket of width ``tol``.  Sequences of odd top degree are truncated
    to the even part (flagged on the report).
    """
    if s.n != 1:
        raise ValueError("heat distance is implemented for n = 1 only")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
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
        return _trivial_report(s, nu, truncated)

    order = s.degree // 2
    start = chebyshev(s.as_1d_tuple(), order)
    if not start.pivots[-1] > 0.0:
        raise NotInteriorError(
            f"not interior: Hankel pivot {len(start.pivots) - 1} is "
            f"{start.pivots[-1]:.3e}, not > 0"
        )
    ub = distance_upper_bound(s, nu)
    F = heat_flow_1d_closed(s, nu)
    coef = backward_moment_coefficients(F)
    distance = _first_crossing(
        lambda t: _pivot_probe(coef, order, t), ub, start.beta[-1], tol
    )

    boundary_seq = evaluate_flow(F, -distance)
    vals = boundary_seq.as_1d_tuple()
    rec, xs, ws = _boundary_rule(vals, order, tol)
    kpoly = monic_polynomial(rec, len(rec.alpha))
    return BoundaryReport(
        distance=distance,
        interval_closed=_boundary_membership(vals, xs, ws, membership_tol),
        boundary_sequence=boundary_seq,
        kernel_poly=kpoly + [0.0] * (order + 1 - len(kpoly)),
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
