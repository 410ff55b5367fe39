"""Gaussian-mixture recovery for interior 1-D moment sequences.

Pipeline: locate the heat distance, take the boundary atoms and weights from
the Gauss rule of the boundary recurrence (both on the distance report),
polish ``(atoms, weights, delta)`` by Gauss-Newton on the closed-form
mixture moments, and move the atomic measure forward in time as a
common-width Gaussian mixture.  A forward check against the closed-form
mixture oracle gates acceptance.  The pipeline is pure Python; the helpers
:func:`atoms_from_kernel` and :func:`weights_from_atoms` work on numpy arrays
and import numpy when called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .core import (
    DEFAULT_DISTANCE_TOL,
    GaussianMixture,
    MomentSequence,
    Record,
    gaussian_moment_1d,  # unused here; perfbench/spans.py wraps this attribute
    oracle_moments_gaussian_mixture,
)
from .boundary import heat_distance_1d
from .hankel import chebyshev
# unused here; perfbench/spans.py wraps these module attributes
from .hankel import build_hankel, classify_psd

if TYPE_CHECKING:
    import numpy as np

RESIDUAL_ACCEPT = 1e-6


class ComplexRootsError(RuntimeError):
    """Kernel polynomial has roots off the real axis."""


class NonPositiveWeightError(RuntimeError):
    """The reconstructed atomic measure is not a positive measure."""


class RecoveryError(RuntimeError):
    """Recovery pipeline failed its forward residual check."""


class RecoveryResult(Record):
    """A recovered mixture ``sum_i c_i * Theta_delta(x - x_i)``.

    ``residual`` is the maximum relative mismatch between the input moments
    and the closed-form moments of the recovered mixture.
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
    import numpy as np

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
    import numpy as np

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
    m = [sum([w * g for w, g in zip(ws, row)]) for row in G]
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
    ``G[j] * 2**(j b)``.  An exact residual makes the Gauss-Newton fixed point
    the solution of the rounded input, not of the rounded moment recurrence.
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
    g2, g1 = [0] * len(X), [1 << b] * len(X)  # G[-1] = 0, G[0] * 2**b
    out = []
    for j, t in enumerate(target):
        if j:
            g2, g1 = g1, [x * p + (j - 1) * V * q for x, p, q in zip(X, g1, g2)]
        m = sum(w * g for w, g in zip(W, g1))  # moment j times 2**((j+1) b + c)
        tn, td = float(t).as_integer_ratio()
        shift = (j + 1) * b + c
        out.append((tn * (1 << shift) - m * td) / (td << shift))
    return out


def _lstsq(A: list[list[float]], b: list[float]) -> list[float]:
    """Least-squares solution of ``A x = b`` (rows >= columns) by Householder QR.

    A column whose reduced diagonal falls below ``eps * rows`` times the
    largest one is dropped (its unknown is set to 0), like the singular-value
    cutoff of a basic least-squares solve.
    """
    rows, cols = len(A), len(A[0])
    R = [[row[j] for row in A] for j in range(cols)]  # columns, reduced in place
    y = list(b)
    diag = []
    for j in range(cols):
        v = R[j]
        norm = math.sqrt(math.fsum([x * x for x in v[j:]]))
        if norm == 0.0:
            diag.append(0.0)
            continue
        alpha = -norm if v[j] > 0.0 else norm
        u = v[j:]
        u[0] -= alpha
        scale = 1.0 / (alpha * u[0])  # = -2 / (u . u)
        for col in R[j + 1 :] + [y]:
            f = sum([p * q for p, q in zip(u, col[j:])]) * scale
            for i, ui in enumerate(u, j):
                col[i] += f * ui
        v[j] = alpha
        diag.append(alpha)
    cutoff = 2.0**-52 * rows * max(map(abs, diag))
    x = [0.0] * cols
    for j in range(cols - 1, -1, -1):
        if abs(diag[j]) > cutoff:
            x[j] = (y[j] - sum([R[i][j] * x[i] for i in range(j + 1, cols)])) / diag[j]
    return x


def _refine(
    xs: list[float],
    ws: list[float],
    delta: float,
    nu: float,
    target: Sequence[float],
    max_iter: int = 30,
) -> tuple[list[float], list[float], float]:
    """Gauss-Newton polish of (atoms, weights, delta) against the input moments.

    The boundary route loses accuracy when atoms cluster; a few Newton steps
    on the closed-form moment equations restore it.  Each moment equation is
    weighted by ``1 / (1 + |s_j|)``, like the cost, so the huge top moments do
    not swamp the step.  Returns the best iterate by cost; returns the
    initial one if the system is underdetermined.
    """
    k = len(xs)
    degree = len(target) - 1
    if degree < 2 * k:
        return xs, ws, delta
    inv = [1.0 / (1.0 + abs(v)) for v in target]

    def residuals(x, w, dl):
        # None when an iterate or its moments leave the float range
        if not all(map(math.isfinite, (*x, *w, dl))):
            return None
        try:
            e = _exact_residuals(x, w, dl, nu, target)
        except OverflowError:
            return None
        _, J = _mixture_moments_and_jacobian(x, w, dl, nu, degree)
        r = [ei * c for ei, c in zip(e, inv)]
        return r, J, max(map(abs, r))

    cur_x, cur_w, cur_d = best = (xs, ws, delta)
    now = residuals(*best)
    if now is None:
        return best
    r, J, best_cost = now
    for _ in range(max_iter):
        step = _lstsq([[v * c for v in row] for row, c in zip(J, inv)], r)
        damp = 1.0
        while cur_d + damp * step[2 * k] <= 0.0 and damp > 1e-6:
            damp *= 0.5
        cur_x = [x + damp * dx for x, dx in zip(cur_x, step[:k])]
        cur_w = [w + damp * dw for w, dw in zip(cur_w, step[k : 2 * k])]
        cur_d = cur_d + damp * step[2 * k]
        now = residuals(cur_x, cur_w, cur_d)
        if now is None:
            break
        r, J, c = now
        if c < best_cost:
            best, best_cost = (cur_x, cur_w, cur_d), c
        if c < 1e-14:
            break
    return best


def _residual(s: MomentSequence, mixture: GaussianMixture) -> float:
    m = oracle_moments_gaussian_mixture(mixture, s.degree)
    return max(
        abs(m[alpha] - s[alpha]) / (1.0 + abs(s[alpha])) for alpha in s.indices()
    )


def recover_gaussian_mixture(
    s: MomentSequence,
    nu: float = 1.0,
    tol: float = DEFAULT_DISTANCE_TOL,
    refine: bool = True,
) -> RecoveryResult:
    """Recover a common-width Gaussian mixture representing ``s``.

    Requires an interior sequence (positive definite Hankel matrix, after odd
    augmentation if needed).  The result is accepted when the forward-check
    residual is at most 1e-6 relative.
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
    if refine:
        xs, ws, delta = _refine(xs, ws, delta, nu, s.as_1d_tuple())
    if not all(w > 0.0 for w in ws) or not delta >= 0.0:
        raise RecoveryError(
            f"recovery failed: not a positive mixture: delta={delta}, atoms={xs}, "
            f"weights={ws}"
        )
    mixture = GaussianMixture(1, nu, tuple(((x,), w, delta) for x, w in zip(xs, ws)))
    residual = _residual(s, mixture)
    if not residual <= RESIDUAL_ACCEPT:
        raise RecoveryError(
            f"recovery failed: residual {residual:.3e} > {RESIDUAL_ACCEPT}: "
            f"delta={delta}, atoms={xs}, weights={ws}; boundary distance "
            f"{report.distance}, kernel {report.kernel_poly}"
        )
    return RecoveryResult(
        mixture=mixture,
        atoms=tuple(zip(xs, ws)),
        delta=delta,
        residual=residual,
        degenerate_kernel=len(xs) < s_work.degree // 2,
    )
