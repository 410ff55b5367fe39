"""Gaussian-mixture recovery for interior 1-D moment sequences.

Pipeline: locate the heat distance, read the kernel polynomial of the
boundary Hankel matrix, take its real roots as atom locations, solve a
Vandermonde least-squares system for the weights, and move the atomic
measure forward in time as a common-width Gaussian mixture.  A forward check
against the closed-form mixture oracle gates acceptance.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ATOM_MERGE_TOL,
    DEFAULT_DISTANCE_TOL,
    GaussianMixture,
    MomentSequence,
    Record,
    gaussian_moment_1d,  # unused here; perfbench/spans.py wraps this attribute
    oracle_moments_gaussian_mixture,
)
from .boundary import BoundaryReport, heat_distance_1d
from .hankel import (
    POSITIVE_DEFINITE,
    build_hankel,
    classify_psd,
    kernel_polynomial,
)

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
    matrix to PSD (a Schur-complement value) plus 1, which makes the extended
    matrix strictly positive definite.  Even-degree input is returned as is.
    """
    if s.n != 1:
        raise ValueError("augmentation is defined for n = 1 only")
    if s.degree % 2 == 0:
        return s
    d = (s.degree - 1) // 2
    even = s.truncate(2 * d)
    rep = classify_psd(build_hankel(even, d))
    if rep.status != POSITIVE_DEFINITE:
        raise ValueError(
            f"augmentation requires a positive definite even part, got {rep.status}"
        )
    vals = s.as_1d_tuple()
    A = build_hankel(even, d).entries
    b = np.array(vals[d + 1 : 2 * d + 2])
    minimal = float(b @ np.linalg.solve(A, b))
    new_vals = list(vals) + [minimal + 1.0]
    return MomentSequence.of_1d(new_vals)


def atoms_from_kernel(f: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Real roots of a kernel polynomial via its companion matrix.

    Roots with relative imaginary part above ``tol`` signal a numerically
    broken boundary sequence and raise.
    """
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


def _merge_roots(xs: np.ndarray) -> np.ndarray:
    if xs.size == 0:
        return xs
    scale = 1.0 + float(np.max(np.abs(xs)))
    groups: list[list[float]] = [[float(xs[0])]]
    for x in xs[1:]:
        if abs(x - groups[-1][-1]) <= ATOM_MERGE_TOL * scale:
            groups[-1].append(float(x))
        else:
            groups.append([float(x)])
    return np.array([np.mean(g) for g in groups])


def weights_from_atoms(
    atoms: np.ndarray, s_b: MomentSequence, tol: float = 1e-9
) -> np.ndarray:
    """Weights of the atomic measure matching the boundary moments.

    Solves the Vandermonde system in least squares against every moment below
    the top one; over-determination damps root perturbation.  A weight more
    negative than ``-tol`` (relative) means the kernel roots do not carry a
    positive measure.
    """
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
    xs: np.ndarray, ws: np.ndarray, delta: float, nu: float, degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """Moments of ``sum_i w_i N(x_i, 2 nu delta)`` and their Jacobian.

    ``G[j, i] = E[(x_i + Z)^j]`` follows the recurrence
    ``G[j] = x G[j-1] + (j-1) var G[j-2]`` over all atoms at once; the
    derivatives are ``j G[j-1]`` in ``x_i`` and ``nu j (j-1) G[j-2]`` in delta.
    """
    k = xs.size
    var = 2.0 * nu * delta
    G = np.empty((degree + 1, k))
    G[0] = 1.0
    if degree >= 1:
        G[1] = xs
    for j in range(2, degree + 1):
        G[j] = xs * G[j - 1] + (j - 1) * var * G[j - 2]
    j = np.arange(degree + 1, dtype=float)
    J = np.zeros((degree + 1, 2 * k + 1))
    J[1:, :k] = j[1:, None] * G[:-1] * ws
    J[:, k : 2 * k] = G
    J[2:, 2 * k] = nu * j[2:] * (j[2:] - 1.0) * (G[:-2] @ ws)
    return G @ ws, J


def _refine(
    xs: np.ndarray,
    ws: np.ndarray,
    delta: float,
    nu: float,
    s: MomentSequence,
    max_iter: int = 30,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Gauss-Newton polish of (atoms, weights, delta) against the input moments.

    The kernel-vector route loses accuracy when atoms cluster; a few Newton
    steps on the closed-form moment equations restore it.  Falls back to the
    initial iterate if the system is underdetermined or fails to improve.
    """
    target = np.array(s.as_1d_tuple())
    k = xs.size
    if target.size < 2 * k + 1:
        return xs, ws, delta
    scale = 1.0 + np.abs(target)

    def moments(x, w, dl):
        m, J = _mixture_moments_and_jacobian(x, w, dl, nu, s.degree)
        return m, J, float(np.max(np.abs(m - target) / scale))

    cur_x, cur_w, cur_d = best = (xs.copy(), ws.copy(), delta)
    m, J, best_cost = moments(*best)
    for _ in range(max_iter):
        # weight each moment equation like the cost, so the huge top moments
        # do not swamp the step and its SVD cutoff
        step, *_ = np.linalg.lstsq(J / scale[:, None], (target - m) / scale, rcond=None)
        damp = 1.0
        while cur_d + damp * step[2 * k] <= 0.0 and damp > 1e-6:
            damp *= 0.5
        cur_x = cur_x + damp * step[:k]
        cur_w = cur_w + damp * step[k : 2 * k]
        cur_d = cur_d + damp * step[2 * k]
        m, J, c = moments(cur_x, cur_w, cur_d)
        if c < best_cost:
            best, best_cost = (cur_x, cur_w, cur_d), c
        if c < 1e-14 or not np.all(np.isfinite(cur_x)):
            break
    return best


def _residual(s: MomentSequence, mixture: GaussianMixture) -> float:
    m = oracle_moments_gaussian_mixture(mixture, s.degree)
    return max(
        abs(m[alpha] - s[alpha]) / (1.0 + abs(s[alpha])) for alpha in s.indices()
    )


def _params_residual(
    xs: np.ndarray, ws: np.ndarray, delta: float, nu: float, s: MomentSequence
) -> float:
    target = np.array(s.as_1d_tuple())
    m, _ = _mixture_moments_and_jacobian(xs, ws, delta, nu, s.degree)
    return float(np.max(np.abs(m - target) / (1.0 + np.abs(target))))


def _reduce_atoms(
    xs: np.ndarray, ws: np.ndarray, delta: float, nu: float, s: MomentSequence
) -> tuple[np.ndarray, np.ndarray, float]:
    """Collapse near-duplicate atoms while the residual gate keeps passing.

    Tangential boundary touches can split one true atom into a close pair of
    spurious roots; merging the pair into its weighted centroid and
    re-polishing restores the minimal representation.  A merge that degrades
    the residual beyond the acceptance gate is reverted.
    """
    while xs.size >= 2:
        gaps = np.diff(xs)
        i = int(np.argmin(gaps))
        if gaps[i] > 1e-2 * (1.0 + float(np.max(np.abs(xs)))):
            break
        w_pair = ws[i] + ws[i + 1]
        x_pair = (ws[i] * xs[i] + ws[i + 1] * xs[i + 1]) / w_pair
        xs_try = np.delete(xs, i + 1)
        ws_try = ws.copy()
        xs_try[i], ws_try = x_pair, np.delete(ws_try, i + 1)
        ws_try[i] = w_pair
        xs_try, ws_try, delta_try = _refine(xs_try, ws_try, delta, nu, s)
        if (
            _params_residual(xs_try, ws_try, delta_try, nu, s) <= RESIDUAL_ACCEPT
            and np.all(ws_try > 0.0)
            and delta_try > 0.0
        ):
            xs, ws, delta = xs_try, ws_try, delta_try
        else:
            break
    return xs, ws, delta


def _attempt(
    s: MomentSequence,
    kernel: np.ndarray,
    report: BoundaryReport,
    nu: float,
    refine: bool,
) -> tuple[GaussianMixture, np.ndarray, np.ndarray, float, float]:
    xs = _merge_roots(atoms_from_kernel(kernel))
    ws = weights_from_atoms(xs, report.boundary_sequence)
    # drop spurious near-zero-weight roots (degenerate kernels produce them)
    scale = 1.0 + abs(report.boundary_sequence[(0,)])
    keep = np.abs(ws) > 1e-8 * scale
    if not np.all(keep):
        xs = xs[keep]
        if xs.size == 0:
            raise NonPositiveWeightError("all weights vanish")
        ws = weights_from_atoms(xs, report.boundary_sequence)
    delta = report.distance
    if refine:
        xs, ws, delta = _refine(xs, ws, delta, nu, s)
        xs, ws, delta = _reduce_atoms(xs, ws, delta, nu, s)
    if np.any(ws <= 0.0):
        raise NonPositiveWeightError(f"weights {ws} are not all positive")
    mixture = GaussianMixture(
        1, nu, tuple(((float(x),), float(w), delta) for x, w in zip(xs, ws))
    )
    return mixture, xs, ws, delta, _residual(s, mixture)


def recover_gaussian_mixture(
    s: MomentSequence,
    nu: float = 1.0,
    tol: float = DEFAULT_DISTANCE_TOL,
    refine: bool = True,
) -> RecoveryResult:
    """Recover a common-width Gaussian mixture representing ``s``.

    Requires an interior sequence (positive definite Hankel matrix, after odd
    augmentation if needed).  The result is accepted when the forward-check
    residual is at most 1e-6 relative; a degenerate kernel triggers one retry
    with an alternative kernel vector before failing.
    """
    if s.n != 1:
        raise ValueError("recovery is implemented for n = 1 only")
    if s.degree < 1:
        raise ValueError("recovery needs degree >= 1")
    s_work = augment_odd(s)
    report = heat_distance_1d(s_work, nu, tol=tol)

    rep_b = report.boundary_psd
    candidates = [report.kernel_poly]
    degenerate = rep_b is not None and rep_b.degenerate
    if degenerate:
        # retry vector: raw kernel basis element with the largest trailing
        # coefficient, i.e. the one most unlike the deterministic pick
        alt = max(rep_b.kernel_basis, key=lambda v: abs(float(v[-1])))
        candidates.append(np.asarray(alt, dtype=float))

    failures = []
    for kernel in candidates:
        try:
            mixture, xs, ws, delta, residual = _attempt(s, kernel, report, nu, refine)
        except (ComplexRootsError, NonPositiveWeightError, ValueError) as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        if residual <= RESIDUAL_ACCEPT:
            if xs.size > s_work.degree // 2 + 1:
                raise RecoveryError(
                    f"atom count {xs.size} exceeds bound {s_work.degree // 2 + 1}"
                )
            return RecoveryResult(
                mixture=mixture,
                atoms=tuple((float(x), float(w)) for x, w in zip(xs, ws)),
                delta=delta,
                residual=residual,
                degenerate_kernel=degenerate,
            )
        failures.append(
            f"residual {residual:.3e} > {RESIDUAL_ACCEPT}: delta={delta}, "
            f"atoms={xs}, weights={ws}"
        )
    raise RecoveryError(
        "recovery failed; attempts: " + " | ".join(failures)
        + f" | boundary distance {report.distance}, kernel {report.kernel_poly}"
    )
