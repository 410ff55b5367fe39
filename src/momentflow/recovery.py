"""Gaussian-mixture recovery for interior 1-D moment sequences.

Pipeline: locate the heat distance, take the boundary atoms and weights from
the Gauss rule of the boundary recurrence (both on the distance report),
polish ``(atoms, weights, delta)`` by Gauss-Newton on the closed-form
mixture moments, and move the atomic measure forward in time as a
common-width Gaussian mixture.  The polish's cost, the exact relative
residual of its best iterate, gates acceptance.  The pipeline is pure
Python; the helpers :func:`atoms_from_kernel` and :func:`weights_from_atoms`
work on numpy arrays and import numpy when called; without numpy they raise
``ImportError`` naming the ``oracle`` extra.

A polish of ``k`` atoms and ``degree`` runs three loops: the exact residual
(:func:`_exact_residuals`), the Jacobian
(:func:`_mixture_moments_and_jacobian`) and the weighted least-squares
solve (:func:`_lstsq`).  From the second polish of a shape on, each runs
as a kernel traced from its loop (:mod:`.kernels`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import reduce
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
from .boundary import heat_distance_1d
from .hankel import chebyshev
# unused here; perfbench/spans.py wraps these module attributes
from .hankel import build_hankel, classify_psd

TYPE_CHECKING = False  # numpy is imported by the helpers that use it
if TYPE_CHECKING:
    import numpy as np

RESIDUAL_ACCEPT = 1e-6
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


def _mixture_moments_and_jacobian(
    xs: Sequence[float], ws: Sequence[float], delta: float, nu: float, degree: int
) -> tuple[list[float], list[list[float]]]:
    """Moments of ``sum_i w_i N(x_i, 2 nu delta)`` and their Jacobian rows.

    ``G[j][i] = E[(x_i + Z)^j]`` follows the recurrence
    ``G[j] = x G[j-1] + (j-1) var G[j-2]`` over all atoms at once; the
    derivatives are ``j G[j-1]`` in ``x_i`` and ``nu j (j-1) G[j-2]`` in delta.
    Row ``j`` of the Jacobian is ``(d/dx_1 .. d/dx_k, d/dw_1 .. d/dw_k,
    d/ddelta)``.
    """
    k = len(xs)
    var = 2.0 * nu * delta
    G = [[1.0] * k]
    if degree >= 1:
        G.append(list(xs))
    for j in range(2, degree + 1):
        c = (j - 1) * var
        G.append([x * g1 + c * g2 for x, g1, g2 in zip(xs, G[j - 1], G[j - 2])])
    m = [chain_sum([w * g for w, g in zip(ws, row)]) for row in G]
    J = [[0.0] * k + G[0] + [0.0]]
    for j in range(1, degree + 1):
        dx = [j * g * w for g, w in zip(G[j - 1], ws)]
        J.append(dx + G[j] + [nu * j * (j - 1.0) * m[j - 2] if j >= 2 else 0.0])
    return m, J


def _exact_residuals(
    xs: Sequence[float], ws: Sequence[float], delta: float, nu: float,
    target: Sequence[float],
) -> list[float]:
    """``target_j`` minus the mixture moments, computed exactly and then rounded.

    Every float is a dyadic rational, so with ``x_i = X_i / 2**b``,
    ``2 nu delta = V / 2**(2b)`` and ``w_i = W_i / 2**c`` the recurrence of
    :func:`_mixture_moments_and_jacobian` runs on the integers
    ``G[j] * 2**(j b)``, each carried times its weight ``W_i``: the products
    ``W_i G[j]`` obey the same recurrence, so moment ``j`` is a sum of ``k``
    integers.  An exact residual makes the Gauss-Newton fixed point the
    solution of the rounded input, not of the rounded moment recurrence.
    """
    xr = [x.as_integer_ratio() for x in map(float, xs)]
    wr = [w.as_integer_ratio() for w in map(float, ws)]
    vn, vd = (2.0 * nu).as_integer_ratio()
    dn, dd = float(delta).as_integer_ratio()
    vn, vd = vn * dn, vd * dd  # exact 2 nu delta
    b = max(max(d for _, d in xr).bit_length() - 1, (vd.bit_length()) // 2)
    X = [n << (b - d.bit_length() + 1) for n, d in xr]
    V = (vn << 2 * b) // vd  # exact: vd is a power of 2 no larger than 2**(2b)
    c = max(d for _, d in wr).bit_length() - 1
    W = [n << (c - d.bit_length() + 1) for n, d in wr]
    h2, h1 = [0] * len(X), [w << b for w in W]  # W G[-1] = 0, W G[0] * 2**b
    out = []
    for j, t in enumerate(target):
        if j:
            v = (j - 1) * V
            h2, h1 = h1, [x * p + v * q for x, p, q in zip(X, h1, h2)]
        m = reduce(add, h1)  # moment j times 2**((j+1) b + c)
        tn, td = float(t).as_integer_ratio()
        shift = (j + 1) * b + c
        out.append(((tn << shift) - m * td) / (td << shift))
    return out


def _lstsq(J: list[list[float]], inv: list[float], b: list[float]) -> list[float]:
    """Least-squares solution of ``A x = b``, ``A[i][j] = J[i][j] * inv[i]``.

    Householder QR, for rows >= columns.  A column whose reduced diagonal
    falls below ``eps * rows`` times the largest one is dropped (its unknown
    is set to 0), like the singular-value cutoff of a basic least-squares
    solve.  So is a column whose reflector scale ``1 / (alpha u_0)`` is not
    a float: one of norm 0, or one so tiny that the scale overflows; the
    kernel traced from these loops hands such a column back to them.
    """
    rows, cols = len(J), len(J[0])
    # columns, reduced in place
    R = [[row[j] * c for row, c in zip(J, inv)] for j in range(cols)]
    y = list(b)
    diag = []
    for j in range(cols):
        v = R[j]
        norm = math.sqrt(math.fsum([x * x for x in v[j:]]))
        alpha = select(v[j] > 0.0, -norm, norm)
        u = v[j:]
        u[0] -= alpha
        h = alpha * u[0]  # = -(u . u) / 2
        if guard(h == 0.0) or guard(math.isinf(1.0 / h)):
            diag.append(0.0)
            continue
        scale = 1.0 / h
        for col in R[j + 1 :] + [y]:
            f = chain_sum([p * q for p, q in zip(u, col[j:])]) * scale
            for i, ui in enumerate(u, j):
                col[i] += f * ui
        v[j] = alpha
        diag.append(alpha)
    cutoff = 2.0**-52 * rows * max(map(abs, diag))
    x = [0.0] * cols
    for j in range(cols - 1, -1, -1):
        keep = abs(diag[j]) > cutoff
        dot = chain_sum([R[i][j] * x[i] for i in range(j + 1, cols)])
        # a dropped column divides by 1.0, which cannot raise, and is not kept
        x[j] = select(keep, (y[j] - dot) / select(keep, diag[j], 1.0), 0.0)
    return x


def _refine(
    xs: list[float],
    ws: list[float],
    delta: float,
    nu: float,
    target: Sequence[float],
) -> tuple[list[float], list[float], float, float]:
    """Gauss-Newton polish of (atoms, weights, delta) against the input moments.

    The boundary route loses accuracy when atoms cluster; a few Newton steps
    on the closed-form moment equations restore it.  Each moment equation is
    weighted by ``1 / (1 + |s_j|)``, like the cost, so the huge top moments do
    not swamp the step.  Returns the best iterate by cost after at most
    ``POLISH_MAX_STEPS`` steps, and that cost, the largest weighted exact
    residual ``|s_j - m_j| / (1 + |s_j|)``; returns the initial iterate, and
    its cost, if the system is underdetermined.  A cost that cannot be
    computed, of a non-finite iterate or of exact moments beyond the float
    range, is ``math.inf``.
    """
    k = len(xs)
    degree = len(target) - 1
    inv = [1.0 / (1.0 + abs(v)) for v in target]
    # the kernels of this shape from the second polish of the shape on
    exact = sighted_kernel("residual", (k, degree)) or _exact_residuals

    def residuals(x, w, dl):
        # None when an iterate or its moments leave the float range
        if not all(map(math.isfinite, (*x, *w, dl))):
            return None
        try:
            e = exact(x, w, dl, nu, target)
        except OverflowError:
            return None
        r = [ei * c for ei, c in zip(e, inv)]
        return r, max(map(abs, r))

    cur_x, cur_w, cur_d = best = (xs, ws, delta)
    now = residuals(*best)
    if now is None:
        return (*best, math.inf)
    r, best_cost = now
    if degree < 2 * k:
        return (*best, best_cost)
    jacobian = sighted_kernel("jacobian", (k, degree)) or _mixture_moments_and_jacobian
    solve = sighted_kernel("solve", (degree + 1, 2 * k + 1)) or _lstsq
    for _ in range(POLISH_MAX_STEPS):
        # the Jacobian of the current iterate, built only for a step from it
        _, J = jacobian(cur_x, cur_w, cur_d, nu, degree)
        step = solve(J, inv, r)
        damp = 1.0
        while cur_d + damp * step[2 * k] <= 0.0 and damp > 1e-6:
            damp *= 0.5
        cur_x = [x + damp * dx for x, dx in zip(cur_x, step[:k])]
        cur_w = [w + damp * dw for w, dw in zip(cur_w, step[k : 2 * k])]
        cur_d = cur_d + damp * step[2 * k]
        now = residuals(cur_x, cur_w, cur_d)
        if now is None:
            break
        r, c = now
        if c < best_cost:
            best, best_cost = (cur_x, cur_w, cur_d), c
        if c < 1e-14:
            break
    return (*best, best_cost)


def recover_gaussian_mixture(
    s: MomentSequence,
    nu: float = 1.0,
    tol: float = DEFAULT_DISTANCE_TOL,
) -> RecoveryResult:
    """Recover a common-width Gaussian mixture representing ``s``.

    Requires an interior sequence (positive definite Hankel matrix, after odd
    augmentation if needed).  The result is accepted when its residual (see
    :class:`RecoveryResult`) is at most 1e-6.
    """
    if s.n != 1:
        raise ValueError("recovery is implemented for n = 1 only")
    if s.degree < 1:
        raise ValueError("recovery needs degree >= 1")
    s_work = augment_odd(s)
    report = heat_distance_1d(s_work, nu, tol=tol)
    if report.boundary_atoms is None:
        raise RecoveryError(
            "the zero sequence has no boundary: backward heat never leaves the "
            "moment cone, so there is no mixture to recover"
        )
    xs = [x for x, _ in report.boundary_atoms]
    ws = [w for _, w in report.boundary_atoms]
    delta = report.distance
    xs, ws, delta, residual = _refine(xs, ws, delta, nu, s.as_1d_tuple())
    if not all(w > 0.0 for w in ws) or not delta >= 0.0:
        raise RecoveryError(
            f"recovery failed: not a positive mixture: delta={delta}, atoms={xs}, "
            f"weights={ws}"
        )
    if not residual <= RESIDUAL_ACCEPT:
        raise RecoveryError(
            f"recovery failed: residual {residual:.3e} > {RESIDUAL_ACCEPT}: "
            f"delta={delta}, atoms={xs}, weights={ws}; boundary distance "
            f"{report.distance}, kernel {report.kernel_poly}"
        )
    return RecoveryResult(
        mixture=GaussianMixture(1, nu, tuple(((x,), w, delta) for x, w in zip(xs, ws))),
        atoms=tuple(zip(xs, ws)),
        delta=delta,
        residual=residual,
        degenerate_kernel=len(xs) < s_work.degree // 2,
    )
