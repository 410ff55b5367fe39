"""Heat distance to the moment-cone boundary and the boundary projection (n = 1).

Backward heat evolution of an interior 1-D sequence leaves the cone at a
finite time: the heat distance.  Along ``t -> s(-t)`` the Hankel matrix is a
matrix polynomial in t, and its minimal eigenvalue is positive exactly on
``[0, distance)``: a positive definite Hankel matrix marks an interior
sequence (Curto & Fialkow 1991) and forward heat keeps interior points
interior.  The a-priori interval ``[0, upper_bound]`` therefore brackets a
single sign change, found by safeguarded regula falsi.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import DEFAULT_DISTANCE_TOL, MomentSequence, Record
# heat_flow is unused here; perfbench/spans.py wraps this module attribute
from .flows import MomentFlow, evaluate_flow, heat_flow, heat_flow_1d_closed
from .hankel import (
    DEFAULT_PSD_TOL,
    PSD_SINGULAR,
    POSITIVE_DEFINITE,
    PsdReport,
    build_hankel,
    classify_psd,
    kernel_polynomial,
)

DEFAULT_MEMBERSHIP_TOL = 1e-6
# A bisection is forced when this many probes fail to halve the bracket.
STALL_PROBES = 4
# Hard cap on lambda_min probes per distance.  It only guarantees termination:
# superlinear steps reach a bracket of adjacent floats far sooner, and forced
# bisections alone halve the bracket at least once per STALL_PROBES + 1 probes.
MAX_PROBES = 200


class NotInteriorError(ValueError):
    """The input sequence is not an interior point of the moment cone."""


class BracketingError(RuntimeError):
    """No sign change of the minimal eigenvalue on ``[0, upper_bound]``."""


class OddDegreeWarning(UserWarning):
    """An odd-degree input lost its top moment before the Hankel analysis."""


class BoundaryReport(Record):
    """Result of the boundary search.

    ``interval_closed`` distinguishes whether the cone-stay interval contains
    its left endpoint, i.e. whether the backward-evolved boundary sequence is
    itself a moment sequence.  Trivial inputs (degree < 2 or the zero
    sequence) never leave the cone; they report an infinite distance.
    ``boundary_psd`` is the classification of the boundary Hankel matrix that
    ``kernel_poly`` was read from, or ``None`` when there is no boundary.
    """

    distance: float
    interval_closed: bool
    boundary_sequence: MomentSequence
    kernel_poly: np.ndarray | None
    upper_bound: float
    truncated_odd: bool
    boundary_psd: PsdReport | None

    def __init__(
        self,
        distance: float,
        interval_closed: bool,
        boundary_sequence: MomentSequence,
        kernel_poly: np.ndarray | None,
        upper_bound: float,
        truncated_odd: bool = False,
        boundary_psd: PsdReport | None = None,
    ):
        d = self.__dict__
        d["distance"] = distance
        d["interval_closed"] = interval_closed
        d["boundary_sequence"] = boundary_sequence
        d["kernel_poly"] = kernel_poly
        d["upper_bound"] = upper_bound
        d["truncated_odd"] = truncated_odd
        d["boundary_psd"] = boundary_psd


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


def backward_hankel_coefficients(F: MomentFlow, order: int) -> np.ndarray:
    """Stacked ``C_j`` with ``H(s(-t)) = sum_j t**j C_j`` for a 1-D heat flow.

    Heat-flow entries are polynomials in t of degree at most ``order``, so the
    backward-evolved Hankel matrix of order ``order`` is exactly this matrix
    polynomial; ``C[j]`` is the Hankel matrix of the ``t**j`` coefficients.
    """
    coef = np.zeros((order + 1, F.degree + 1))
    for (m,), f in F.entries.items():
        for term in f.terms:
            coef[term.power, m] = term.coeff if term.power % 2 == 0 else -term.coeff
    idx = np.add.outer(np.arange(order + 1), np.arange(order + 1))
    return coef[:, idx]


def _lambda_min(C: np.ndarray, t: float) -> float:
    """Minimal eigenvalue of ``sum_j t**j C[j]``."""
    H = (t ** np.arange(len(C))) @ C.reshape(len(C), -1)
    return float(np.linalg.eigvalsh(H.reshape(C.shape[1:]))[0])


def _kernel_report_at_boundary(H, tol: float) -> PsdReport:
    # at the located crossing the smallest eigenvalue is zero only up to the
    # root's resolution; widen the classification window, and as a last
    # resort treat the bottom eigenvector as the kernel
    for factor in (1.0, 100.0):
        rep = classify_psd(H, tol=tol * factor)
        if rep.status == PSD_SINGULAR:
            return rep
    w, v = np.linalg.eigh(H.entries)
    return PsdReport(PSD_SINGULAR, float(w[0]), (v[:, 0].copy(),))


def _boundary_membership(
    seq: MomentSequence, kernel_poly: np.ndarray, mem_tol: float
) -> bool:
    """Test whether the boundary sequence is represented by atoms on the kernel roots.

    Membership requires real roots, nonnegative weights, reproduction of the
    moments below the top one, and a vanishing top-moment slack.  A strictly
    positive slack marks a PSD-singular sequence that is not a moment
    sequence, i.e. an open cone-stay interval.
    """
    vals = seq.as_1d_tuple()
    d = seq.degree
    v = np.asarray(kernel_poly, dtype=float)
    nz = np.nonzero(v)[0]
    if nz.size == 0 or nz.max() < 1:
        return False
    deg = int(nz.max())
    roots = np.roots(v[: deg + 1][::-1])
    if np.any(np.abs(roots.imag) > 1e-8 * (1.0 + np.abs(roots.real))):
        return False
    xs = np.sort(roots.real)
    mscale = 1.0 + max(abs(x) for x in vals)
    A = np.vander(xs, N=d, increasing=True).T  # rows are moments 0 .. d-1
    b = np.array(vals[:d])
    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.any(w < -mem_tol * mscale):
        return False
    if float(np.max(np.abs(A @ w - b))) > mem_tol * mscale:
        return False
    slack = vals[d] - math.fsum(wi * xi**d for wi, xi in zip(w, xs))
    return -mem_tol * mscale <= slack <= mem_tol * mscale


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


def _first_crossing(C: np.ndarray, ub: float, lam0: float, tol: float) -> float:
    """Left end of ``{t in [0, ub] : lambda_min(t) <= 0}``, within ``tol``.

    ``lambda_min`` is positive exactly on ``[0, D)``, so the bracket
    ``[0, ub]`` holds one sign change.  Regula falsi with the Anderson-Bjorck
    rescaling of the value kept at a stale end (Anderson & Bjorck, BIT 13,
    1973) converges superlinearly from both sides at a simple crossing; a
    bisection step is forced whenever ``STALL_PROBES`` probes fail to halve
    the bracket, which bounds the cost at a tangential crossing.  The loop
    stops when the bracket is narrower than ``tol``, when it spans adjacent
    floats, or after ``MAX_PROBES`` probes, and returns the end where
    ``lambda_min <= 0``, so the kernel is visible there.
    """
    lo, hi = 0.0, ub
    f_lo, f_hi = lam0, _lambda_min(C, ub)
    if not f_hi <= 0.0:
        raise BracketingError(
            f"root bracketing failed: no sign change of lambda_min in [0, {ub}]; "
            f"lambda_min(0) = {lam0:.3e}, lambda_min({ub}) = {f_hi:.3e}"
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
        f = _lambda_min(C, t)
        if f > 0.0:
            if moved > 0:
                m = 1.0 - f / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo, moved = t, f, 1
        else:
            if moved < 0:
                m = 1.0 - f / f_hi
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

    Finds the sign change of ``lambda_min`` of the backward-evolved Hankel
    matrix on ``[0, upper_bound]`` with a safeguarded bracketed root, down to
    a bracket of width ``tol``.  Sequences of odd top degree are truncated to
    the even part (flagged on the report).
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
    start = classify_psd(build_hankel(s, order))
    if start.status != POSITIVE_DEFINITE:
        raise NotInteriorError(
            f"not interior: Hankel classification is {start.status} "
            f"(min eigenvalue {start.min_eigenvalue:.3e})"
        )
    ub = distance_upper_bound(s, nu)
    F = heat_flow_1d_closed(s, nu)
    C = backward_hankel_coefficients(F, order)
    distance = _first_crossing(C, ub, start.min_eigenvalue, tol)

    boundary_seq = evaluate_flow(F, -distance)
    H_b = build_hankel(boundary_seq, order)
    rep = _kernel_report_at_boundary(H_b, tol=max(DEFAULT_PSD_TOL, 100.0 * tol))
    kpoly = kernel_polynomial(rep)
    closed = _boundary_membership(boundary_seq, kpoly, membership_tol)
    return BoundaryReport(
        distance=distance,
        interval_closed=closed,
        boundary_sequence=boundary_seq,
        kernel_poly=kpoly,
        upper_bound=ub,
        truncated_odd=truncated,
        boundary_psd=rep,
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
