"""Hankel matrices of 1-D sequences: PSD classification and kernel extraction."""

from __future__ import annotations

import numpy as np

from .core import MomentSequence, Record

POSITIVE_DEFINITE = "positive_definite"
PSD_SINGULAR = "psd_singular"
INDEFINITE = "indefinite"

DEFAULT_PSD_TOL = 1e-10


class HankelMatrix(Record):
    """Symmetric matrix ``H[i, j] = s_{i+j}`` of a given order."""

    order: int
    entries: np.ndarray

    def __init__(self, order: int, entries: np.ndarray):
        m = np.asarray(entries, dtype=float)
        if m.shape != (order + 1, order + 1):
            raise ValueError(f"entries shape {m.shape} does not match order {order}")
        d = self.__dict__
        d["order"] = order
        d["entries"] = m

    def to_csv(self) -> str:
        """Debug dump, one matrix row per line."""
        return "\n".join(
            ",".join(repr(float(x)) for x in row) for row in self.entries
        )


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
    m = np.empty((order + 1, order + 1))
    for i in range(order + 1):
        for j in range(order + 1):
            m[i, j] = vals[i + j]
    return HankelMatrix(order, m)


def classify_psd(H: HankelMatrix, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Eigenvalue-based cone classification.

    The threshold is ``tol`` times ``max(1, spectral norm)``.  Eigenvectors
    whose eigenvalue is below the threshold in magnitude form the kernel
    basis of a singular PSD matrix.
    """
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
    """Coefficient vector (low to high) of the kernel polynomial.

    From a deterministic echelon ordering of the kernel basis, picks the
    vector of smallest polynomial degree and normalizes its highest-order
    nonzero coefficient to 1.  Requires a singular PSD report.
    """
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
