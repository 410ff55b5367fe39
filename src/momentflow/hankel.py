"""Hankel matrices of 1-D sequences and their orthogonal-polynomial recurrence.

The 1-D pipeline (heat distance, boundary atoms, recovery) runs on one
recurrence, in pure Python.  :func:`chebyshev` is the Chebyshev algorithm
(Gautschi, *Orthogonal Polynomials: Computation and Approximation*, 2004,
section 2.1.7) over the moments ``s_0 .. s_2m``.  It yields the LDL^T pivots
``sigma_kk`` of the Hankel matrix ``H[i, j] = s_{i+j}``, which is positive
definite exactly when every pivot is > 0, and the three-term recurrence
``(alpha_k, beta_k)`` of the monic orthogonal polynomials ``p_k``.
:func:`monic_polynomial` expands ``p_k``; :func:`gauss_rule` gives the Gauss
quadrature of the recurrence (Golub & Welsch, Math. Comp. 23, 1969), whose
nodes are the zeros of ``p_k``.  These loops are the reference that the
boundary's search and rule kernels unroll (written in :mod:`.kernels`), and
they run on the first use of each Hankel order.

The matrix helpers :class:`HankelMatrix`, :func:`build_hankel`,
:func:`classify_psd` and :func:`kernel_polynomial` classify by eigenvalues.
They import numpy when called, and the pipeline does not use them; without
numpy they raise ``ImportError`` naming the ``oracle`` extra.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .core import MomentSequence, Record, optional_import

TYPE_CHECKING = False  # numpy is imported by the helpers that use it
if TYPE_CHECKING:
    import numpy as np

POSITIVE_DEFINITE = "positive_definite"
PSD_SINGULAR = "psd_singular"
INDEFINITE = "indefinite"

DEFAULT_PSD_TOL = 1e-10
# sweeps of implicit QL allowed per eigenvalue before the Gauss rule gives up
QL_MAX_SWEEPS = 30


class Recurrence(Record):
    """One Chebyshev pass: ``sigma_kk``, ``alpha_k`` and ``beta_k``.

    ``pivots[k]`` is ``sigma_kk = integral of p_k**2``, ``beta[k]`` is
    ``sigma_kk / sigma_{k-1,k-1}`` with ``beta[0] = s_0``, and ``alpha[k]``
    is the recurrence coefficient in
    ``p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1}``.  The pass stops at the
    first pivot that is not > 0, so ``len(pivots) == len(beta) ==
    len(alpha) + 1`` and the Hankel matrix of the order asked for is positive
    definite exactly when ``pivots[-1] > 0``.
    """

    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    pivots: tuple[float, ...]

    def __init__(self, alpha: Sequence[float], beta: Sequence[float],
                 pivots: Sequence[float]):
        d = self.__dict__
        d["alpha"] = tuple(alpha)
        d["beta"] = tuple(beta)
        d["pivots"] = tuple(pivots)


def chebyshev(moments: Sequence[float], order: int) -> Recurrence:
    """Chebyshev algorithm over ``moments[0 .. 2 * order]``.

    ``sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l}
    - beta_{k-1} sigma_{k-2,l}`` for ``l = k .. 2 order - k``, with
    ``sigma_{0,l} = s_l`` and ``sigma_{-1,l} = 0``.
    """
    width = 2 * order + 1
    prev = [0.0] * width
    cur = [float(x) for x in moments[:width]]
    pivots, alpha, beta = [cur[0]], [], [cur[0]]
    ratio = 0.0  # sigma_{k-1,k} / sigma_{k-1,k-1}
    for k in range(1, order + 1):
        pivot = cur[k - 1]
        if not pivot > 0.0:
            break
        a = cur[k] / pivot - ratio
        ratio = cur[k] / pivot
        b = beta[-1]
        nxt = [0.0] * width
        for l in range(k, width - k):
            nxt[l] = cur[l + 1] - a * cur[l] - b * prev[l]
        alpha.append(a)
        pivots.append(nxt[k])
        beta.append(nxt[k] / pivot)
        prev, cur = cur, nxt
    return Recurrence(alpha, beta, pivots)


def monic_polynomial(rec: Recurrence, k: int) -> list[float]:
    """Coefficients (low to high) of the monic ``p_k``; needs ``k <= len(rec.alpha)``."""
    before, p = [], [1.0]
    for j in range(k):
        a, b = rec.alpha[j], rec.beta[j]
        nxt = [0.0] + p
        for i, c in enumerate(p):
            nxt[i] -= a * c
        for i, c in enumerate(before):
            nxt[i] -= b * c
        before, p = p, nxt
    return p


def gauss_rule(rec: Recurrence) -> tuple[list[float], list[float]]:
    """Nodes (ascending) and weights of the ``n = len(rec.alpha)``-point Gauss rule.

    The nodes are the eigenvalues of the Jacobi matrix with diagonal
    ``alpha_0 .. alpha_{n-1}`` and off-diagonal ``sqrt(beta_1 .. beta_{n-1})``,
    the weights ``s_0 z_{1i}**2`` from the first components ``z_{1i}`` of its
    normalized eigenvectors.  Implicit QL with Wilkinson shifts (the
    ``imtqlx`` form of Elhay & Kautsky) carries only that first row.  Needs
    ``beta_1 .. beta_{n-1} > 0``.
    """
    n = len(rec.alpha)
    d = list(rec.alpha)
    e = [math.sqrt(b) for b in rec.beta[1:n]] + [0.0]
    z = [1.0] + [0.0] * (n - 1)
    eps = 2.0**-52
    for l in range(n):
        for sweep in range(QL_MAX_SWEEPS + 1):
            m = l
            while m < n - 1 and abs(e[m]) > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if sweep == QL_MAX_SWEEPS:
                raise ArithmeticError(
                    f"Gauss rule: implicit QL did not converge on alpha={rec.alpha}, "
                    f"beta={rec.beta}"
                )
            p = d[l]
            g = (d[l + 1] - p) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - p + e[l] / (g + (r if g >= 0.0 else -r))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                if abs(g) <= abs(f):
                    c = g / f
                    r = math.hypot(c, 1.0)
                    e[i + 1] = f * r
                    s = 1.0 / r
                    c *= s
                else:
                    s = f / g
                    r = math.hypot(s, 1.0)
                    e[i + 1] = g * r
                    c = 1.0 / r
                    s *= c
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    order = sorted(range(n), key=d.__getitem__)
    s0 = rec.beta[0]
    return [d[i] for i in order], [s0 * z[i] * z[i] for i in order]


class HankelMatrix(Record):
    """Symmetric matrix ``H[i, j] = s_{i+j}`` of a given order (a numpy array)."""

    order: int
    entries: np.ndarray

    def __init__(self, order: int, entries: np.ndarray):
        np = optional_import("numpy", "HankelMatrix")

        m = np.asarray(entries, dtype=float)
        if m.shape != (order + 1, order + 1):
            raise ValueError(f"entries shape {m.shape} does not match order {order}")
        d = self.__dict__
        d["order"] = order
        d["entries"] = m


class PsdReport(Record):
    """Classification of a symmetric matrix relative to the PSD cone.

    ``kernel_basis`` holds the near-null eigenvectors and is nonempty exactly
    for the ``psd_singular`` status; a basis with more than one vector marks a
    degenerate (higher-corank) boundary point.
    """

    status: str
    min_eigenvalue: float
    kernel_basis: tuple[np.ndarray, ...]

    def __init__(self, status: str, min_eigenvalue: float,
                 kernel_basis: tuple[np.ndarray, ...]):
        d = self.__dict__
        d["status"] = status
        d["min_eigenvalue"] = min_eigenvalue
        d["kernel_basis"] = kernel_basis

    @property
    def degenerate(self) -> bool:
        return len(self.kernel_basis) > 1


def build_hankel(s: MomentSequence, order: int) -> HankelMatrix:
    """Hankel matrix of a 1-D sequence; requires moments up to ``2 * order``."""
    if s.n != 1:
        raise ValueError("Hankel matrices are defined for 1-D sequences only")
    if s.degree < 2 * order:
        raise ValueError(
            f"sequence degree {s.degree} is insufficient for Hankel order {order}"
        )
    vals = s.as_1d_tuple()
    return HankelMatrix(
        order, [[vals[i + j] for j in range(order + 1)] for i in range(order + 1)]
    )


def classify_psd(H: HankelMatrix, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Eigenvalue-based cone classification, kept for inspection.

    The threshold is ``tol * max(1, ||H||_2)``.  An eigenvalue below minus the
    threshold makes ``H`` indefinite; eigenvectors whose eigenvalue is within
    it of zero form the kernel basis of a singular PSD matrix.  No pipeline
    path calls this.  The pipeline's interior is "every pivot of
    :func:`chebyshev` > 0", and the two disagree once the condition number
    of ``H`` passes about ``1 / tol``, as at Hankel orders 7-8 (README).
    """
    np = optional_import("numpy", "classify_psd")

    w, v = np.linalg.eigh(H.entries)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    lam_min = float(w[0])
    thresh = tol * scale
    if lam_min < -thresh:
        return PsdReport(INDEFINITE, lam_min, ())
    kernel = tuple(v[:, i].copy() for i in range(w.size) if abs(w[i]) <= thresh)
    if kernel:
        return PsdReport(PSD_SINGULAR, lam_min, kernel)
    return PsdReport(POSITIVE_DEFINITE, lam_min, ())


def _echelon_rows(rows: np.ndarray, tiny: float) -> list[np.ndarray]:
    """Gauss-reduce kernel vectors from the highest coefficient downwards.

    Each returned row has a distinct highest nonzero coefficient, so the row
    whose leading index is smallest is the lowest-degree polynomial in the
    kernel span.  Deterministic: pivots are chosen by largest magnitude, ties
    by lowest row index.
    """
    rows = rows.astype(float, copy=True)
    used: list[int] = []
    pivots: list[tuple[int, int]] = []  # (column, row)
    for col in range(rows.shape[1] - 1, -1, -1):
        cand = [r for r in range(rows.shape[0]) if r not in used]
        if not cand:
            break
        r_best = max(cand, key=lambda r: (abs(rows[r, col]), -r))
        if abs(rows[r_best, col]) <= tiny:
            continue
        rows[r_best] /= rows[r_best, col]
        for r in range(rows.shape[0]):
            if r != r_best:
                rows[r] -= rows[r, col] * rows[r_best]
        used.append(r_best)
        pivots.append((col, r_best))
    pivots.sort()
    return [rows[r] for _, r in pivots]


def kernel_polynomial(report: PsdReport, trim_tol: float = 1e-12) -> np.ndarray:
    """Coefficient vector (low to high, a numpy array) of the kernel polynomial.

    From a deterministic echelon ordering of the kernel basis, picks the
    vector of smallest polynomial degree and normalizes its highest-order
    nonzero coefficient to 1.  Requires a singular PSD report.
    """
    np = optional_import("numpy", "kernel_polynomial")

    if report.status != PSD_SINGULAR or not report.kernel_basis:
        raise ValueError(f"kernel polynomial requires psd_singular, got {report.status}")
    rows = np.array(report.kernel_basis)
    tiny = trim_tol * max(1.0, float(np.max(np.abs(rows))))
    reduced = _echelon_rows(rows, tiny)
    if not reduced:
        raise ValueError("kernel basis reduced to zero; no polynomial available")
    v = reduced[0].copy()
    lead = int(np.max(np.nonzero(np.abs(v) > trim_tol * np.max(np.abs(v)))[0]))
    v /= v[lead]
    v[lead + 1 :] = 0.0
    return v
