"""Gaussian-mixture recovery for interior 1-D moment sequences.

Pipeline: locate the heat distance, take the boundary atoms and weights from
the Gauss rule of the boundary recurrence (:func:`.boundary._search_and_rule`),
polish ``(atoms, weights, u)`` by Gauss-Newton on the closed-form mixture
moments, and move the atomic measure forward in time as a common-width
Gaussian mixture.  The mixture depends on its width ``delta`` and on ``nu``
only through the clock ``u = nu delta``, as the search does on ``nu t``, so
search, rule and polish run without ``nu``, and ``delta = u / nu`` is read
once, for the result (:func:`.boundary._unclock`).  The polish's cost, the
exact relative residual of its best iterate, gates acceptance, on the input
and on its power-of-two standardized form (:func:`_standardized_cost`).  The
pipeline is pure Python; the helpers :func:`atoms_from_kernel` and
:func:`weights_from_atoms` work on numpy arrays and import numpy when
called; without numpy they raise ``ImportError`` naming the ``oracle``
extra.

A polish of ``k`` atoms and ``degree`` runs two loops: the exact residual
(:func:`_exact_residuals`) and the Gauss-Newton step
(:func:`_gauss_newton_step`).  From the second polish of a shape on, each
runs as a kernel traced from its loop (:mod:`.kernels`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import reduce
from itertools import count
from operator import add

from .core import (
    DEFAULT_DISTANCE_TOL,
    GaussianMixture,
    MomentSequence,
    Record,
    chain_sum,
    gaussian_moment_1d,  # unused here; perfbench/spans.py wraps this attribute
    guard,
    optional_import,
    oracle_moments_gaussian_mixture,  # unused here; perfbench/spans.py wraps this attribute
    select,
    sighted_kernel,
)
from .boundary import _check_rate_and_tol, _scale, _search_and_rule, _unclock
from .boundary import heat_distance_1d  # unused here; perfbench/spans.py wraps this attribute
from .hankel import chebyshev
# unused here; perfbench/spans.py wraps these module attributes
from .hankel import build_hankel, classify_psd

TYPE_CHECKING = False  # numpy is imported by the helpers that use it
if TYPE_CHECKING:
    import numpy as np

RESIDUAL_ACCEPT = 1e-6
# The polish starts from the rule at the far end of the search's bracket, so
# the bracket is at most this fraction of the bound s_2 / (2 s_0), whatever
# tol is: a wider one can end past the crossing, where the boundary has fewer
# atoms than the input.
START_WIDTH = 1e-9
# Gauss-Newton steps of one polish at most.
POLISH_MAX_STEPS = 30


class ComplexRootsError(RuntimeError):
    """Kernel polynomial has roots off the real axis."""


class NonPositiveWeightError(RuntimeError):
    """The reconstructed atomic measure is not a positive measure."""


class RecoveryError(RuntimeError):
    """Recovery pipeline failed its forward residual check."""


class RecoveryResult(Record):
    """A recovered mixture ``sum_i c_i * Theta_delta(x - x_i)``.

    ``residual`` is ``max_j |s_j - m_j| / (1 + |s_j|)`` over the input
    moments ``s_j`` and the closed-form moments ``m_j`` of the recovered
    mixture, each difference computed exactly and rounded once, then
    multiplied by the rounded ``1 / (1 + |s_j|)``.  It is the cost of the
    polish's best iterate.
    ``degenerate_kernel`` marks a boundary measure with fewer atoms than the
    Hankel order.
    """

    mixture: GaussianMixture
    atoms: tuple[tuple[float, float], ...]
    delta: float
    residual: float
    degenerate_kernel: bool

    def __init__(self, mixture: GaussianMixture, atoms: tuple[tuple[float, float], ...],
                 delta: float, residual: float, degenerate_kernel: bool = False):
        d = self.__dict__
        d["mixture"] = mixture
        d["atoms"] = atoms
        d["delta"] = delta
        d["residual"] = residual
        d["degenerate_kernel"] = degenerate_kernel


def augment_odd(s: MomentSequence) -> MomentSequence:
    """Extend an odd-degree 1-D sequence by one moment keeping the Hankel PD.

    The added moment is the minimal value completing the bordered Hankel
    matrix to PSD plus 1, which makes the extended matrix strictly positive
    definite.  The last pivot is the top moment minus that minimal value, so
    one Chebyshev pass with the top moment set to 0 gives it as
    ``-sigma_{d+1,d+1}``.  Even-degree input is returned as is.
    """
    if s.n != 1:
        raise ValueError("augmentation is defined for n = 1 only")
    if s.degree % 2 == 0:
        return s
    d = (s.degree - 1) // 2
    vals = s.as_1d_tuple()
    rec = chebyshev(vals + (0.0,), d + 1)
    if len(rec.pivots) < d + 2:
        raise ValueError(
            "augmentation requires a positive definite even part; Hankel pivot "
            f"{len(rec.pivots) - 1} is {rec.pivots[-1]:.3e}"
        )
    return MomentSequence.of_1d(list(vals) + [1.0 - rec.pivots[-1]])


def atoms_from_kernel(f: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Real roots of a kernel polynomial via its companion matrix.

    Roots with relative imaginary part above ``tol`` signal a numerically
    broken boundary sequence and raise.
    """
    np = optional_import("numpy", "atoms_from_kernel")

    v = np.asarray(f, dtype=float)
    if v.size == 0 or not np.any(v != 0.0):
        raise ValueError("kernel polynomial is zero")
    lead = int(np.max(np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]))
    if lead < 1:
        raise ValueError("kernel polynomial is a nonzero constant; no roots")
    roots = np.roots(v[: lead + 1][::-1])
    bad = np.abs(roots.imag) > tol * (1.0 + np.abs(roots.real))
    if np.any(bad):
        raise ComplexRootsError(f"complex kernel roots: {roots[bad]}")
    return np.sort(roots.real)


def weights_from_atoms(
    atoms: np.ndarray, s_b: MomentSequence, tol: float = 1e-9
) -> np.ndarray:
    """Weights of the atomic measure matching the boundary moments.

    Solves the Vandermonde system in least squares against every moment below
    the top one; over-determination damps root perturbation.  A weight more
    negative than ``-tol`` (relative) means the kernel roots do not carry a
    positive measure.
    """
    np = optional_import("numpy", "weights_from_atoms")

    atoms = np.asarray(atoms, dtype=float)
    if atoms.size == 0:
        raise ValueError("no atoms given")
    vals = s_b.as_1d_tuple()
    rows = max(s_b.degree, 1)  # moments 0 .. 2d-1
    A = np.vander(atoms, N=rows, increasing=True).T
    b = np.array(vals[:rows])
    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    scale = 1.0 + max(abs(x) for x in vals)
    if np.any(w < -tol * scale):
        raise NonPositiveWeightError(
            f"not a positive measure: weights {w} for atoms {atoms}"
        )
    return w


def _exact_residuals(
    xs: Sequence[float], ws: Sequence[float], u: float, target: Sequence[tuple[int, int]],
) -> list[float]:
    """``target_j`` minus the mixture moments, computed exactly and then rounded.

    ``target_j`` is the integer ratio of a float, ``(numerator, denominator)``.
    The atoms have the variance ``2u`` of the clock width ``u = nu delta``.
    Every float is a dyadic rational, so with ``x_i = X_i / 2**b``,
    ``2u = V / 2**(2b)`` and ``w_i = W_i / 2**c`` the recurrence of
    :func:`_gauss_newton_step` runs on the integers
    ``G[j] * 2**(j b)``, each carried times its weight ``W_i``: the products
    ``W_i G[j]`` obey the same recurrence, so moment ``j`` is a sum of ``k``
    integers.  An exact residual makes the Gauss-Newton fixed point the
    solution of the rounded input, not of the rounded moment recurrence.
    """
    xr = [x.as_integer_ratio() for x in xs]
    wr = [w.as_integer_ratio() for w in ws]
    un, ud = u.as_integer_ratio()
    b = max(max(d for _, d in xr).bit_length() - 1, ud.bit_length() // 2)
    X = [n << (b - d.bit_length() + 1) for n, d in xr]
    V = (un << 2 * b + 1) // ud  # exact: ud is a power of 2 no larger than 2**(2b)
    c = max(d for _, d in wr).bit_length() - 1
    W = [n << (c - d.bit_length() + 1) for n, d in wr]
    h2, h1 = [0] * len(X), [w << b for w in W]  # W G[-1] = 0, W G[0] * 2**b
    out = []
    for j, (tn, td) in enumerate(target):
        if j:
            v = (j - 1) * V
            h2, h1 = h1, [x * p + v * q for x, p, q in zip(X, h1, h2)]
        m = reduce(add, h1)  # moment j times 2**((j+1) b + c)
        shift = (j + 1) * b + c
        out.append(((tn << shift) - m * td) / (td << shift))
    return out


def _gauss_newton_step(
    xs: Sequence[float], ws: Sequence[float], u: float,
    inv: Sequence[float], r: Sequence[float],
) -> tuple[list[float], list[float], float]:
    """The Gauss-Newton step from ``(xs, ws, u)``: ``(xs', ws', u')``.

    ``u = nu delta`` is the clock width, and ``Z`` has the variance
    ``var = 2u``: ``G[j][i] = E[(x_i + Z)^j]`` follows
    ``G[j] = x G[j-1] + (j-1) var G[j-2]`` over all atoms at once.  Row
    ``j < len(inv)`` of the Jacobian of the mixture moments ``m_j`` is
    ``j w_i G[j-1]`` in ``x_i``, ``G[j]`` in ``w_i`` and ``j (j-1) m_{j-2}``
    in ``u``; times ``inv[j]``, it is row
    ``j`` of a least-squares system with right-hand side ``r``, solved by
    Householder QR (rows >= columns).  A column whose reduced diagonal falls
    below ``eps * rows`` times the largest one is dropped (its unknown set to
    0), like the cutoff of a basic least-squares solve, and so is a column
    whose reflector scale ``1 / (alpha a_0)`` is not a float (norm 0, or so
    tiny that the scale overflows).  A step that would make ``u <= 0`` is
    halved until it does not, 20 times at most.  The kernel traced from this
    loop hands both cases back to it.
    """
    k, rows = len(xs), len(inv)
    var = 2.0 * u
    G = [[1.0] * k, list(xs)]
    for j in range(2, rows):
        c = (j - 1) * var
        G.append([x * g1 + c * g2 for x, g1, g2 in zip(xs, G[j - 1], G[j - 2])])
    # the columns d/dx_i, d/dw_i and d/du, each row j weighted by inv[j],
    # reduced in place
    R = [[0.0 * inv[0]] + [j * G[j - 1][i] * w * c for j, c in enumerate(inv[1:], 1)]
         for i, w in enumerate(ws)]
    R += [[row[i] * c for row, c in zip(G, inv)] for i in range(k)]
    R.append([0.0 * c for c in inv[:2]] + [
        j * (j - 1.0) * chain_sum([w * g for w, g in zip(ws, G[j - 2])]) * c
        for j, c in enumerate(inv[2:], 2)])
    cols = len(R)
    y = list(r)
    diag = []
    for j in range(cols):
        v = R[j]
        norm = math.sqrt(math.fsum([x * x for x in v[j:]]))
        alpha = select(v[j] > 0.0, -norm, norm)
        a = v[j:]
        a[0] -= alpha
        h = alpha * a[0]  # = -(a . a) / 2
        if guard(h == 0.0) or guard(math.isinf(1.0 / h)):
            diag.append(0.0)
            continue
        scale = 1.0 / h
        for col in R[j + 1 :] + [y]:
            f = chain_sum([p * q for p, q in zip(a, col[j:])]) * scale
            for i, ai in enumerate(a, j):
                col[i] += f * ai
        v[j] = alpha
        diag.append(alpha)
    cutoff = 2.0**-52 * rows * max(map(abs, diag))
    x = [0.0] * cols
    for j in range(cols - 1, -1, -1):
        keep = abs(diag[j]) > cutoff
        dot = chain_sum([R[i][j] * x[i] for i in range(j + 1, cols)])
        # a dropped column divides by 1.0, which cannot raise, and is not kept
        x[j] = select(keep, (y[j] - dot) / select(keep, diag[j], 1.0), 0.0)
    if guard(u + x[-1] <= 0.0):
        damp = 1.0
        while u + damp * x[-1] <= 0.0 and damp > 1e-6:
            damp *= 0.5
        x = [damp * v for v in x]
    return ([p + q for p, q in zip(xs, x)], [p + q for p, q in zip(ws, x[k:])],
            u + x[-1])


def _refine(
    xs: list[float], ws: list[float], u: float, target: Sequence[float],
) -> tuple[list[float], list[float], float, float, list[float] | None]:
    """Gauss-Newton polish of (atoms, weights, u) against the input moments,
    ``u = nu delta`` the clock width.

    The boundary route loses accuracy when atoms cluster; a few Newton steps
    on the closed-form moment equations restore it.  Each moment equation is
    weighted by ``1 / (1 + |s_j|)``, like the cost, so the huge top moments do
    not swamp the step (:func:`_gauss_newton_step`, one call per step).
    Returns the best iterate by cost after at most ``POLISH_MAX_STEPS``
    steps, that cost, the largest weighted exact residual
    ``|s_j - m_j| / (1 + |s_j|)``, and its exact residuals ``s_j - m_j``;
    returns the initial iterate, and its cost, if the system is
    underdetermined.  A cost that cannot be computed, of a non-finite iterate
    or of exact moments beyond the float range, is ``math.inf``, with no
    residuals (``None``).
    """
    k = len(xs)
    degree = len(target) - 1
    inv = [1.0 / (1.0 + abs(v)) for v in target]
    ratios = [float(v).as_integer_ratio() for v in target]
    # the kernels of this shape from the second polish of the shape on
    exact = sighted_kernel("residual", (k, degree)) or _exact_residuals

    def residuals(x, w, dl):
        # None when an iterate or its moments leave the float range: the
        # exact residual's as_integer_ratio raises on inf and NaN
        try:
            e = exact(x, w, dl, ratios)
        except (OverflowError, ValueError):
            return None
        r = [ei * c for ei, c in zip(e, inv)]
        return r, max(map(abs, r)), e

    cur_x, cur_w, cur_d = best = (xs, ws, u)
    now = residuals(*best)
    if now is None:
        return (*best, math.inf, None)
    r, best_cost, best_e = now
    if degree < 2 * k:
        return (*best, best_cost, best_e)
    step = sighted_kernel("step", (k, degree)) or _gauss_newton_step
    for _ in range(POLISH_MAX_STEPS):
        cur_x, cur_w, cur_d = step(cur_x, cur_w, cur_d, inv, r)
        now = residuals(cur_x, cur_w, cur_d)
        if now is None:
            break
        r, c, e = now
        if c < best_cost:
            best, best_cost, best_e = (cur_x, cur_w, cur_d), c, e
        if c < 1e-14:
            break
    return (*best, best_cost, best_e)


def _standardized_cost(errors: Sequence[float] | None, s: Sequence[float]) -> float:
    """The cost of exact residuals ``errors`` on the power-of-two standardized ``s``.

    Moment ``j`` and its residual are scaled exactly by ``2**(-p - k j)``,
    with the search's :func:`.boundary._scale`, which brings ``s_0`` and
    ``s_2`` within a factor of 2 of 1.  The cost is then the largest
    ``|e'_j| / (1 + |s'_j|)``, as the caller's residual weighs them, so the
    acceptance test does not depend on the units of mass and length.
    Residuals that are missing or leave the float range cost ``math.inf``.
    """
    if errors is None:
        return math.inf
    p, k = _scale(s)
    try:
        return max(abs(e) / (1.0 + abs(v)) for e, v in zip(
            map(math.ldexp, errors, count(-p, -k)), map(math.ldexp, s, count(-p, -k))))
    except OverflowError:
        return math.inf


def recover_gaussian_mixture(
    s: MomentSequence,
    nu: float = 1.0,
    tol: float = DEFAULT_DISTANCE_TOL,
) -> RecoveryResult:
    """Recover a common-width Gaussian mixture representing ``s``.

    Requires an interior sequence (positive definite Hankel matrix, after odd
    augmentation if needed).  The result is accepted when its residual (see
    :class:`RecoveryResult`) is at most 1e-6, and so is the cost of its exact
    residuals on the standardized sequence (:func:`_standardized_cost`), which
    does not change with the units of mass and length.
    """
    if s.n != 1:
        raise ValueError("recovery is implemented for n = 1 only")
    if s.degree < 1:
        raise ValueError("recovery needs degree >= 1")
    s_work = augment_odd(s)
    _check_rate_and_tol(nu, tol)
    if s_work.is_zero():
        raise RecoveryError(
            "the zero sequence has no boundary: backward heat never leaves the "
            "moment cone, so there is no mixture to recover"
        )
    s_vals = s_work.as_1d_tuple()
    crossing, _, xs, ws, kpoly = _search_and_rule(s_vals, tol * nu, START_WIDTH)
    xs, ws, u, residual, errors = _refine(xs, ws, crossing, s_vals[: s.degree + 1])
    delta = _unclock(u, nu)
    if not all(w > 0.0 for w in ws) or not delta >= 0.0:
        raise RecoveryError(
            f"recovery failed: not a positive mixture: delta={delta}, atoms={xs}, "
            f"weights={ws}"
        )
    standardized = _standardized_cost(errors, s_vals)
    for name, cost in (("residual", residual), ("standardized residual", standardized)):
        if not cost <= RESIDUAL_ACCEPT:
            raise RecoveryError(
                f"recovery failed: {name} {cost:.3e} > {RESIDUAL_ACCEPT}: "
                f"delta={delta}, atoms={xs}, weights={ws}; boundary distance "
                f"{crossing / nu}, kernel {tuple(kpoly)}"
            )
    return RecoveryResult(
        mixture=GaussianMixture(1, nu, tuple(((x,), w, delta) for x, w in zip(xs, ws))),
        atoms=tuple(zip(xs, ws)),
        delta=delta,
        residual=residual,
        degenerate_kernel=len(xs) < s_work.degree // 2,
    )
