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
(:func:`_search_source`, :func:`_rule_source`), written by hand, not traced
(:mod:`.core`), as the data choose how many probes and QL sweeps run.  The
search unrolls the heat table and the probe, and hands the probe to the
loops' one regula falsi, :func:`_first_crossing`.  Each kernel takes its
loop's arguments and hands every input on which it raises, or might, back
by calling it; they run in this module's globals, where they find the
loops.  A boundary of full rank is a flat extension, so it is a moment
sequence (Curto & Fialkow 1991) and its interval is closed; only a
degenerate boundary runs the numerical membership test.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Sequence

# the search kernels call chain_sum, as they run in this module's globals
from .core import DEFAULT_DISTANCE_TOL, MomentSequence, Record, chain_sum, sighted_kernel
# heat_flow, evaluate_flow, build_hankel and classify_psd are unused here; they
# are imported only because perfbench/spans.py wraps these module attributes
from .flows import _heat_factors, _heat_table_1d, evaluate_flow, heat_flow
from .hankel import (
    Recurrence,
    build_hankel,
    chebyshev,
    classify_psd,
    gauss_rule,
    monic_polynomial,
)
from . import hankel  # bound by the import above; the rule reads QL_MAX_SWEEPS there

DEFAULT_MEMBERSHIP_TOL = 1e-6
# A bisection is forced when this many probes fail to halve the bracket.
STALL_PROBES = 4
# Hard cap on probes per distance.  It only guarantees termination:
# superlinear steps reach a bracket of adjacent floats far sooner, and forced
# bisections alone halve the bracket at least once per STALL_PROBES + 1 probes.
MAX_PROBES = 200
# At the located crossing a lower beta_k (a squared length) at most this, times
# 1 + |s_2 / s_0|, counts as zero.  A tangential crossing resolves the distance
# only to about sqrt(eps), and a vanishing beta_k is that small there too.  A
# coarse search tolerance needs no larger threshold: the search ends where the
# Hankel matrix is not positive definite, where a vanishing lower pivot is <= 0.
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
    s0 = s[(0,) * s.n]
    if s0 <= 0.0:
        raise ValueError(f"upper bound requires s_0 > 0, got {s0}")
    diagonal = [tuple(2 if i == j else 0 for i in range(s.n)) for j in range(s.n)]
    for alpha in diagonal:
        if s[alpha] < 0.0:
            raise NotInteriorError(f"not interior: moment s_{alpha} is {s[alpha]!r}, not >= 0")
    second = math.fsum(s[alpha] for alpha in diagonal)
    den = 2.0 * s.n * s0 * nu
    bound = second / den if 0.0 < den < math.inf else math.inf
    if math.isinf(bound):
        part = "bound's denominator 2 n s_0 nu" if den == math.inf else "bound"
        raise OverflowError(f"the distance {part} overflows at nu = {nu!r}, s_0 = {s0!r}")
    return bound


def _chebyshev_lines(moments: list[str], order: int, stop: list[str]) -> list[str]:
    """Statements of :func:`.hankel.chebyshev` over the named moments, unrolled.

    Level ``k`` checks the pivot ``sigma_{k-1,k-1}`` (running ``stop`` where
    it is not > 0) and defines ``a{k-1}`` (``alpha_{k-1}``), the row
    ``x{k}_{l}`` (``sigma_{k,l}``) and ``b{k}`` (``beta_k``), so that
    ``x{k}_{k}`` is the pivot ``sigma_kk``.  The loops' level 1 subtracts
    ``beta_0 * 0.0``, which is ``+0.0`` for a finite ``s_0 > 0``, and is left
    out; the ratio ``sigma_{k-1,k} / sigma_{k-1,k-1}`` is taken once.
    """
    width = 2 * order + 1
    out, prev, cur = [], [], list(moments)
    for k in range(1, order + 1):
        pivot = cur[k - 1]
        out += [f"if not {pivot} > 0.0:", *(f"    {s}" for s in stop)]
        if k == 1:
            out.append(f"a0 = q = {cur[1]} / {pivot}")
        else:
            out += [f"r = {cur[k]} / {pivot}", f"a{k - 1} = r - q"]
            out += ["q = r"] if k < order else []
        nxt = list(cur)
        for l in range(k, width - k):
            low = "" if k == 1 else f" - b{k - 1} * {prev[l]}"
            nxt[l] = f"x{k}_{l}"
            out.append(f"{nxt[l]} = {cur[l + 1]} - a{k - 1} * {cur[l]}{low}")
        out.append(f"b{k} = {nxt[k]} / {pivot}")
        prev, cur = cur, nxt
    return out


def _search_source(order: int) -> str:
    """Source of the order-``order`` search: :func:`_loop_search` unrolled.

    ``search(s, order, nu, tol)`` returns ``(distance, upper_bound,
    boundary values)`` with the bits of the loops, and hands back to them,
    by returning ``_loop_search(s, order, nu, tol)``, where they raise or
    could: a heat table entry or power of ``nu`` beyond the float range, an
    input that is not interior, a bound that cannot be computed, no sign
    change at the bound, an error in the boundary sums.

    * The signed heat table in locals ``c{m}_{j}``: the products of
      :func:`.flows._heat_table_1d` in their operand order, odd powers of t
      negated as ``0.0 - c`` and even ones as ``c + 0.0``, which turns a zero
      of either sign into ``+0.0`` as the loops do.
    * ``probe(t)``, nested over that table, is :func:`_pivot_probe` one
      statement per step: the Horner sum over each row from its top
      coefficient (the loops' ``0.0 * t + c`` is ``c`` at the finite
      ``t >= 0`` searched), then :func:`_chebyshev_lines` over a finite
      ``s_0``.  ``probe(0.0)`` is the interior test: the ``beta_m`` of the
      Chebyshev pass over ``s``, zero signs aside, which never move a
      positive pivot.  The bound follows, then the loops' own regula falsi,
      :func:`_first_crossing`, on ``probe``.
    * Each boundary moment is the ``fsum`` of every term of its row.  A zero
      coefficient adds a ``+0.0`` term, which ``fsum`` (correctly rounded,
      never ``-0.0``) ignores, where the loops leave it out.
    """
    width = 2 * order + 1
    rows = [[f"c{m}_{j}" for j in range(m // 2 + 1)] for m in range(width)]
    back = "return _loop_search(s, order, nu, tol)"
    out = ["def search(s, order, nu, tol):",
           f"    {', '.join(f's{m}' for m in range(width))}, = s.as_1d_tuple()", "    try:"]
    out += [f"        n{j} = nu ** {j}" for j in range(1, order + 1)]
    for m, factors in enumerate(map(_heat_factors, range(width))):
        out.append(f"        c{m}_0 = s{m} + 0.0")
        for j in range(1, len(factors)):
            product = f"{factors[j]} * s{m - 2 * j} * n{j}"
            out.append(f"        c{m}_{j} = " +
                       (f"0.0 - {product}" if j % 2 else f"{product} + 0.0"))
    upper = ", ".join(c for row in rows for c in row[1:])
    out += ["    except OverflowError:", f"        {back}",
            f"    if not math.isfinite(chain_sum(({upper},))):", f"        {back}",
            "    def probe(t):"]
    for m, row in enumerate(rows[2:], 2):
        # Horner from the top coefficient; the last step yields x0_m = s_m(-t)
        steps = [f"{row[-1]} * t + {row[-2]}"] + [f"v * t + {c}" for c in reversed(row[:-2])]
        out += [f"        v = {e}" for e in steps[:-1]] + [f"        x0_{m} = {steps[-1]}"]
    moments = ["c0_0", "c1_0"] + [f"x0_{m}" for m in range(2, width)]
    out += [f"        {line}" for line in _chebyshev_lines(moments, order, ["return -math.inf"])]
    sums = ", ".join(["c0_0", "c1_0"] + [
        f"math.fsum([{', '.join([row[0]] + [f'{c} * p{j}' for j, c in enumerate(row) if j])}])"
        for row in rows[2:]
    ])
    powers = "\n".join(f"        p{j} = hi ** {j}" for j in range(1, order + 1))
    return "\n".join(out) + f"""
        return b{order}
    f0 = probe(0.0)
    if not f0 > 0.0:
        {back}
    den = 2.0 * s0 * nu
    ub = s2 / den if 0.0 < den < math.inf else math.inf
    if ub == math.inf:
        {back}
    try:
        hi = _first_crossing(probe, ub, f0, tol)
    except BracketingError:
        {back}
    try:
{powers}
        vals = {sums},
    except (OverflowError, ValueError):
        {back}
    return hi, ub, vals
"""


# One sweep of hankel.gauss_rule's implicit QL on eigenvalue l, once the split
# index m and dm = d[m] are known, and rotation i of it.
_QL_SWEEP = """\
p = d{l}
g = (d{l1} - p) / (2.0 * e{l})
r = math.hypot(g, 1.0)
g = dm - p + e{l} / (g + (r if g >= 0.0 else -r))
s = c = 1.0
p = 0.0"""
_QL_ROTATION = """\
f = s * e{i}
b = c * e{i}
if abs(g) <= abs(f):
    c = g / f
    r = math.hypot(c, 1.0)
    e{j} = f * r
    s = 1.0 / r
    c *= s
else:
    s = f / g
    r = math.hypot(s, 1.0)
    e{j} = g * r
    c = 1.0 / r
    s *= c
g = d{j} - p
r = (d{i} - g) * s + 2.0 * c * b
p = s * r
d{j} = g + p
g = c * r - b
z{i}, z{j} = c * z{i} - s * z{j}, s * z{i} + c * z{j}"""


def _rule_source(order: int) -> str:
    """Source of the order-``order`` boundary rule: :func:`_loop_rule` unrolled.

    ``rule(vals, order)`` returns ``(nodes, weights, kernel_poly)`` with the
    bits of the loops, and hands back to them, by returning
    ``_loop_rule(vals, order)``, where they cut the recurrence below
    ``order`` or could raise: an infinite ``s_0``, a pivot that is not > 0, a
    ``beta_k`` at or below the rank threshold (a degenerate boundary), or
    ``hankel.QL_MAX_SWEEPS`` sweeps spent on one eigenvalue.

    * The Chebyshev pass of :func:`_chebyshev_lines`, then the rank test.
    * :func:`.hankel.gauss_rule` on locals ``d{i}``, ``e{i}`` and ``z{i}``.
      The sweeps on eigenvalue ``l`` run in a loop, and their split index
      ``m`` is data: each rotation ``i`` is written once per ``l`` and runs
      where ``m > i``, so the source grows with ``order**2``.  The nodes and
      the weights ``s_0 z_i**2`` are sorted as there.
    * :func:`.hankel.monic_polynomial`, whose top coefficients are the
      literal ``1.0``: a product with one is left out, which is exact.
    """
    n, width = order, 2 * order + 1
    sweeps = hankel.QL_MAX_SWEEPS
    s = [f"s{m}" for m in range(width)]
    back = "return _loop_rule(vals, order)"
    out = ["def rule(vals, order):", f"    {', '.join(s)}, = vals",
           "    if s0 == math.inf:", f"        {back}"]
    out += [f"    {line}" for line in _chebyshev_lines(s, order, [back])]
    out.append(f"    tiny = {BOUNDARY_RANK_TOL!r} * (1.0 + abs(s2 / s0))")
    if n > 1:
        out += [f"    if {' or '.join(f'b{k} <= tiny' for k in range(1, n))}:",
                f"        {back}"]
    out += [f"    d{i} = a{i}" for i in range(n)]
    out += [f"    e{i} = math.sqrt(b{i + 1})" for i in range(n - 1)]
    out += ["    z0 = 1.0"] + [f"    z{i} = 0.0" for i in range(1, n)]

    def split(j):  # the loops step m past j while this holds
        return f"abs(e{j}) > {2.0**-52!r} * (abs(d{j}) + abs(d{j + 1}))"

    for l in range(n - 1):
        out += [f"    for sweep in range({sweeps + 1}):", f"        if not {split(l)}:",
                "            break", f"        if sweep == {sweeps}:", f"            {back}"]
        out.append(f"        m, dm = {n - 1}, d{n - 1}")  # unless a j > l splits first
        for j in range(l + 1, n - 1):
            out += [f"        {'if' if j == l + 1 else 'elif'} not {split(j)}:",
                    f"            m, dm = {j}, d{j}"]
        out += [f"        {x}" for x in _QL_SWEEP.format(l=l, l1=l + 1).splitlines()]
        for i in range(n - 2, l - 1, -1):
            pad = "            " if i > l else "        "
            out += [f"        if m > {i}:"] if i > l else []
            out += [pad + x for x in _QL_ROTATION.format(i=i, j=i + 1).splitlines()]
        out += [f"        d{l} -= p", f"        e{l} = g"]
        out += [f"        {'if' if j == l + 1 else 'elif'} m == {j}:\n            e{j} = 0.0"
                for j in range(l + 1, n - 1)]
    out += [f"    d = ({', '.join(f'd{i}' for i in range(n))},)",
            f"    z = ({', '.join(f'z{i}' for i in range(n))},)",
            f"    {', '.join(f'i{i}' for i in range(n))}, = sorted(range({n}), "
            "key=d.__getitem__)",
            f"    nodes = [{', '.join(f'd[i{i}]' for i in range(n))}]",
            f"    weights = [{', '.join(f's0 * z[i{i}] * z[i{i}]' for i in range(n))}]"]
    # coefficient i of the monic p_j is p{j}_{i}, and its top one is 1.0
    before, p = [], ["1.0"]
    for j in range(n):
        nxt = []
        for i in range(j + 1):
            value = f"{p[i - 1] if i else '0.0'} - a{j}" + (" * " + p[i]) * (i < j)
            if i < j:
                value += f" - b{j}" + (" * " + before[i]) * (i < j - 1)
            nxt.append(f"p{j + 1}_{i}")
            out.append(f"    {nxt[-1]} = {value}")
        before, p = p, nxt + ["1.0"]
    out.append(f"    return nodes, weights, [{', '.join(p)}]")
    return "\n".join(out) + "\n"


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
    (:func:`_rule_source`).  The rank is the first ``k >= 1`` whose
    ``beta_k`` is at most ``BOUNDARY_RANK_TOL`` times ``1 + |s_2 / s_0|``, or
    ``order``.  A smaller rank than ``order`` marks a degenerate boundary,
    whose measure has fewer atoms; the rank is the number of nodes.
    """
    rec = chebyshev(vals, order)
    tiny = BOUNDARY_RANK_TOL * (1.0 + abs(vals[2] / vals[0]))
    rank = next(
        (k for k in range(1, len(rec.alpha)) if rec.beta[k] <= tiny), len(rec.alpha)
    )
    rec = Recurrence(rec.alpha[:rank], rec.beta[: rank + 1], rec.pivots[: rank + 1])
    xs, ws = gauss_rule(rec)
    kpoly = monic_polynomial(rec, rank)
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
    tol = DEFAULT_MEMBERSHIP_TOL * (1.0 + max(*map(abs, vals)))
    return all(
        abs(v - math.fsum([w * x**j for x, w in zip(xs, ws)])) <= tol
        for j, v in enumerate(vals)
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
    if not (math.isfinite(nu) and nu > 0.0):
        raise ValueError(f"nu must be finite and > 0, got {nu}")
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
        return BoundaryReport(
            distance=math.inf, interval_closed=True, boundary_sequence=s,
            kernel_poly=None, upper_bound=math.inf, truncated_odd=truncated,
        )

    order = s.degree // 2
    # the kernels of this order from the second distance of the order on
    search = sighted_kernel("search", (order,), _search_source, globals()) or _loop_search
    distance, ub, vals = search(s, order, nu, tol)
    rule = sighted_kernel("rule", (order,), _rule_source, globals()) or _loop_rule
    xs, ws, kpoly = rule(vals, order)
    # a full-rank boundary is a flat extension: its order atoms represent it
    return BoundaryReport(
        distance=distance,
        interval_closed=len(xs) == order or _boundary_membership(vals, xs, ws),
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
