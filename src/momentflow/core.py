"""Truncated multivariate moment sequences, measures, and independent moment oracles.

A moment sequence stores one real number per multi-index ``alpha`` with
``|alpha| <= degree``.  Everything downstream (flows, Hankel geometry,
recovery) acts on these sequences; the oracles in this module provide the
independent reference values used to verify those computations.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

MultiIndex = tuple[int, ...]
Polynomial = Mapping[MultiIndex, float]

# Two atoms closer than this (relative max-norm) are treated as one point.
ATOM_MERGE_TOL = 1e-9
# Bracket width at which the heat distance search stops (library and CLI).
DEFAULT_DISTANCE_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Quadrature did not reach the requested tolerance.

    ``achieved`` carries the error estimate that was actually attained.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


class Record:
    """Base of the library's immutable value classes.

    A subclass declares its fields as class annotations, in order, and its
    ``__init__`` stores each field in the instance ``__dict__``.  Assignment
    and deletion raise ``AttributeError``.  Equality, hashing and ``repr`` go
    by the field values in declaration order, so a record with a dict or an
    array field is unhashable.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        d = self.__dict__
        fields = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _compositions(total: int, n: int) -> Iterable[MultiIndex]:
    # first component descending gives reverse-lexicographic order directly
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


def enumerate_multiindices(n: int, d: int) -> list[MultiIndex]:
    """All multi-indices with ``|alpha| <= d`` in graded lexicographic order.

    Within one total degree, indices are ordered with the leading component
    largest first, e.g. ``(1, 0)`` before ``(0, 1)``.  The list has length
    ``comb(n + d, d)``.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    out: list[MultiIndex] = []
    for deg in range(d + 1):
        out.extend(_compositions(deg, n))
    return out


def _check_index(alpha: object, n: int) -> MultiIndex:
    if not isinstance(alpha, tuple) or len(alpha) != n:
        raise ValueError(f"multi-index {alpha!r} is not a tuple of length {n}")
    for a in alpha:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            raise ValueError(f"multi-index {alpha!r} has invalid entry {a!r}")
    return alpha


def check_index_set(n: int, degree: int, keys: Iterable[object]) -> list[MultiIndex]:
    """Check that ``keys`` are exactly the multi-indices with ``|alpha| <= degree``.

    Each key must be a tuple of ``n`` non-negative ints; otherwise, or when an
    index is missing or extra, raises ``ValueError`` naming it.  Returns the
    indices as :func:`enumerate_multiindices` lists them.
    """
    expected = enumerate_multiindices(n, degree)
    keys = [_check_index(alpha, n) for alpha in keys]
    found, wanted = set(keys), set(expected)
    if found != wanted:
        missing = [a for a in expected if a not in found]
        extra = [a for a in keys if a not in wanted]
        raise ValueError(
            f"index set must cover exactly |alpha| <= {degree}: "
            f"missing {missing[:3]}, extra {extra[:3]}"
        )
    return expected


class MomentSequence(Record):
    """A truncated multisequence ``(s_alpha)`` for ``|alpha| <= degree``.

    Construction asserts that the index set covers exactly all multi-indices
    up to the truncation degree; total-degree truncation is therefore closed
    under ``alpha -> alpha - 2 e_j``, which the flow recursions rely on.
    Every value must be finite.
    """

    n: int
    degree: int
    values: Mapping[MultiIndex, float]

    def __init__(self, n: int, degree: int, values: Mapping[MultiIndex, float]):
        vals = dict(values)
        expected = check_index_set(n, degree, vals)
        # keyed by the enumerated int tuples, whatever equal keys the caller used
        vals = {alpha: float(vals[alpha]) for alpha in expected}
        if not all(map(math.isfinite, vals.values())):
            alpha = next(a for a, v in vals.items() if not math.isfinite(v))
            raise ValueError(f"moment {alpha} is not finite: {vals[alpha]}")
        d = self.__dict__
        d["n"] = n
        d["degree"] = degree
        d["values"] = vals

    @classmethod
    def _unchecked(
        cls, n: int, degree: int, values: dict[MultiIndex, float]
    ) -> "MomentSequence":
        """Wrap ``values`` as they are, without the checks of ``__init__``.

        Only for callers whose ``values`` already has exactly what those
        checks produce: float values keyed by ``enumerate_multiindices(n,
        degree)``, in that order.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", values)
        return self

    @classmethod
    def of_1d(cls, vals: Sequence[float]) -> "MomentSequence":
        """Build a 1-D sequence from ``(s_0, ..., s_d)``."""
        return cls(1, len(vals) - 1, {(k,): float(v) for k, v in enumerate(vals)})

    def __getitem__(self, alpha: MultiIndex) -> float:
        return self.values[alpha]

    def indices(self) -> list[MultiIndex]:
        return enumerate_multiindices(self.n, self.degree)

    def as_1d_tuple(self) -> tuple[float, ...]:
        if self.n != 1:
            raise ValueError("as_1d_tuple requires n = 1")
        return tuple(self.values[(k,)] for k in range(self.degree + 1))

    def truncate(self, degree: int) -> "MomentSequence":
        if degree > self.degree:
            raise ValueError(f"cannot truncate degree {self.degree} to {degree}")
        keep = {a: self.values[a] for a in enumerate_multiindices(self.n, degree)}
        return MomentSequence(self.n, degree, keep)

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values.values())


def linear_combination(coeffs: Sequence[float], seqs: Sequence[MomentSequence]) -> MomentSequence:
    """Entrywise ``sum_i coeffs[i] * seqs[i]``; all sequences must share (n, degree)."""
    if len(coeffs) != len(seqs) or not seqs:
        raise ValueError("need equally many coefficients and sequences")
    n, d = seqs[0].n, seqs[0].degree
    for s in seqs:
        if (s.n, s.degree) != (n, d):
            raise ValueError("sequences must share dimension and degree")
    vals = {
        alpha: math.fsum(c * s[alpha] for c, s in zip(coeffs, seqs))
        for alpha in enumerate_multiindices(n, d)
    }
    return MomentSequence(n, d, vals)


def riesz_apply(s: MomentSequence, p: Polynomial) -> float:
    """Apply the Riesz functional of ``s`` to the polynomial ``p``.

    ``p`` maps multi-indices to coefficients; the result is
    ``sum_alpha p[alpha] * s[alpha]``.  Indices beyond the truncation degree
    raise an error naming the offending index.
    """
    addends = []
    for alpha, coeff in p.items():
        alpha = _check_index(tuple(alpha), s.n)
        if sum(alpha) > s.degree:
            raise ValueError(
                f"polynomial index {alpha} exceeds sequence degree {s.degree}"
            )
        addends.append(float(coeff) * s[alpha])
    return math.fsum(addends)


def _merge_atoms(
    n: int,
    atoms: Iterable[tuple[Sequence[float], float]],
    merge_tol: float,
) -> tuple[tuple[tuple[float, ...], float], ...]:
    merged: list[list[object]] = []  # [point, weight]
    for point, weight in atoms:
        point = tuple(float(x) for x in point)
        if len(point) != n:
            raise ValueError(f"atom point {point} does not have dimension {n}")
        weight = float(weight)
        hit = None
        for entry in merged:
            q = entry[0]
            scale = 1.0 + max(
                (abs(x) for x in tuple(q) + point), default=0.0
            )
            dist = max((abs(a - b) for a, b in zip(point, q)), default=0.0)
            if dist <= merge_tol * scale:
                hit = entry
                break
        if hit is None:
            merged.append([point, weight])
        else:
            hit[1] = hit[1] + weight
    return tuple((tuple(p), float(w)) for p, w in merged)


class AtomicMeasure(Record):
    """Finite weighted sum of point masses; weights may be signed."""

    n: int
    atoms: tuple[tuple[tuple[float, ...], float], ...]

    def __init__(self, n: int, atoms: Iterable[tuple[Sequence[float], float]]):
        d = self.__dict__
        d["n"] = n
        d["atoms"] = _merge_atoms(n, atoms, ATOM_MERGE_TOL)

    @property
    def signed(self) -> bool:
        return any(w < 0.0 for _, w in self.atoms)


class GaussianMixture(Record):
    """Weighted sum of heat kernels ``c_i * Theta_{nu t_i}(x - p_i)``.

    A component with time 0 is the point mass at its center; otherwise the
    component is an isotropic Gaussian with per-coordinate variance
    ``2 * nu * t_i``.
    """

    n: int
    nu: float
    components: tuple[tuple[tuple[float, ...], float, float], ...]

    def __init__(
        self,
        n: int,
        nu: float,
        components: Iterable[tuple[Sequence[float], float, float]],
    ):
        if not nu > 0.0:
            raise ValueError(f"diffusion coefficient must be > 0, got {nu}")
        comps = []
        for center, weight, time in components:
            center = tuple(float(x) for x in center)
            if len(center) != n:
                raise ValueError(f"center {center} does not have dimension {n}")
            if time < 0.0:
                raise ValueError(f"component time must be >= 0, got {time}")
            comps.append((center, float(weight), float(time)))
        d = self.__dict__
        d["n"] = n
        d["nu"] = nu
        d["components"] = tuple(comps)

    @property
    def min_time(self) -> float:
        return min(t for _, _, t in self.components)


def oracle_moments_atomic(mu: AtomicMeasure, d: int) -> MomentSequence:
    """Moments of an atomic measure by direct evaluation on the point masses."""
    vals = {}
    for alpha in enumerate_multiindices(mu.n, d):
        vals[alpha] = math.fsum(
            w * math.prod(x**a for x, a in zip(point, alpha))
            for point, w in mu.atoms
        )
    return MomentSequence(mu.n, d, vals)


def gaussian_moment_1d(mean: float, variance: float, m: int) -> float:
    """``E[(mean + Z)^m]`` for ``Z ~ N(0, variance)``.

    Uses the even-central-moment expansion; ``variance = 0`` reduces to
    ``mean**m`` because only the ``j = 0`` term survives.
    """
    total = 0.0
    for j in range(m // 2 + 1):
        dfact = math.factorial(2 * j) // (2**j * math.factorial(j))  # (2j-1)!!
        total += math.comb(m, 2 * j) * mean ** (m - 2 * j) * variance**j * dfact
    return total


def oracle_moments_gaussian_mixture(g: GaussianMixture, d: int) -> MomentSequence:
    """Closed-form moments of a Gaussian mixture.

    Per component the coordinates are independent, so each mixed moment is a
    product of shifted one-dimensional Gaussian moments with variance
    ``2 * nu * t_i``.
    """
    vals = {}
    for alpha in enumerate_multiindices(g.n, d):
        addends = []
        for center, weight, time in g.components:
            var = 2.0 * g.nu * time
            addends.append(
                weight
                * math.prod(
                    gaussian_moment_1d(p, var, a) for p, a in zip(center, alpha)
                )
            )
        vals[alpha] = math.fsum(addends)
    return MomentSequence(g.n, d, vals)


def _adaptive_integral(
    f: Callable[[tuple[float, ...]], float],
    box: Sequence[tuple[float, float]],
    tol: float,
) -> tuple[float, float]:
    """Nested adaptive quadrature over a box; returns (value, error estimate)."""
    from scipy.integrate import quad

    lo, hi = box[0]
    if len(box) == 1:
        val, err = quad(lambda x: f((x,)), lo, hi, epsabs=0.1 * tol,
                        epsrel=1e-13, limit=400)
        return val, err

    inner_tol = 0.1 * tol / (1.0 + abs(hi - lo))

    def outer(x: float) -> float:
        val, _ = _adaptive_integral(lambda rest: f((x,) + rest), box[1:], inner_tol)
        return val

    val, err = quad(outer, lo, hi, epsabs=0.1 * tol, epsrel=1e-13, limit=400)
    return val, err


def oracle_moments_quadrature(
    density: Callable[[tuple[float, ...]], float],
    box: Sequence[tuple[float, float]],
    d: int,
    tol: float,
) -> MomentSequence:
    """Moments of ``density`` over ``box`` by adaptive quadrature.

    The box must capture essentially all mass (caller's duty).  Supports
    n <= 3; each entry is integrated to absolute tolerance ``tol``.  Inner
    error estimates of the nested levels are not propagated to the outer
    estimate, which is standard for iterated adaptive quadrature.
    """
    n = len(box)
    if not 1 <= n <= 3:
        raise ValueError(f"quadrature oracle supports 1 <= n <= 3, got {n}")
    vals = {}
    for alpha in enumerate_multiindices(n, d):
        def integrand(x: tuple[float, ...], alpha=alpha) -> float:
            return density(x) * math.prod(xi**a for xi, a in zip(x, alpha))

        val, err = _adaptive_integral(integrand, box, tol)
        if err > tol:
            raise QuadratureError(
                f"moment {alpha}: error estimate {err:.3e} exceeds tol {tol:.3e}",
                achieved=err,
            )
        vals[alpha] = val
    return MomentSequence(n, d, vals)


def stieltjes_sequence(d: int) -> MomentSequence:
    """The 1-D test sequence ``s_k = exp(k^2 / 2)``, an indeterminate fixture."""
    return MomentSequence.of_1d([math.exp(k * k / 2.0) for k in range(d + 1)])
