"""Truncated multivariate moment sequences, measures, and independent moment oracles.

A moment sequence stores one real number per multi-index ``alpha`` with
``|alpha| <= degree``.  Everything downstream (flows, Hankel geometry,
recovery) acts on these sequences; the oracles in this module provide the
independent reference values used to verify those computations.  The closed
1-D heat table (:func:`_heat_table_1d`) lives here too, so the heat distance
and recovery load no flow code.

The module also caches the library's straight-line kernels, each compiled
on the second use of its shape (:func:`sighted_kernel`) from the source that
:mod:`.kernels` writes.  Every float sum that is not an ``fsum`` runs left
to right (:func:`chain_sum`), so no result depends on the Python version.
"""

from __future__ import annotations

import importlib
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import lru_cache, reduce
from operator import add, getitem, is_

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


def optional_import(name: str, helper: str):
    """The module ``name`` (numpy or part of scipy), which ``helper`` needs.

    No pipeline function and no CLI command imports numpy or scipy, so the
    package depends on neither.  Without them, ``helper`` raises
    ``ImportError`` naming the ``oracle`` extra that installs them.
    """
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise ImportError(
            f"{helper} needs {name.partition('.')[0]}, which is not installed; "
            "install it with: pip install 'momentflow[oracle]'"
        ) from exc


# Straight-line kernels by (kind, key), and the (kind, key) pairs used so far.
_KERNELS: dict[tuple[str, tuple[int, ...]], Callable] = {}
_SIGHTED: set[tuple[str, tuple[int, ...]]] = set()


def compiled_kernel(kind: str, key: tuple[int, ...]) -> Callable:
    """The kernel ``kind`` for ``key``, compiled once per key.

    It runs in the namespace that :data:`.kernels.KINDS` gives the kind, the
    globals of its loop's module, and is defined in a dict of its own, so
    compiling writes nothing there.  The first compile imports :mod:`.kernels`.
    """
    kernel = _KERNELS.get((kind, key))
    if kernel is None:
        from .kernels import KINDS  # imported by the first compile, not with core

        namespace, source = KINDS[kind]
        defined = {}
        exec(compile(source(*key), f"<{kind} kernel {key}>", "exec"), namespace, defined)
        kernel = _KERNELS[kind, key] = defined[kind]
    return kernel


def sighted_kernel(kind: str, key: tuple[int, ...]) -> Callable | None:
    """Count one use of ``(kind, key)``; return its kernel if it has one.

    The second use of a key compiles the kernel (see :func:`compiled_kernel`).
    Compiling costs more than one use saves, so the first use runs the loops
    that the kernel unrolls, and a process that uses each key once (one
    ``distance`` or ``recover`` command) compiles nothing.  A call site
    reads ``(sighted_kernel(kind, key) or loop)(args)``.
    """
    kernel = _KERNELS.get((kind, key))  # a compiled key costs this one probe
    if kernel is None:
        if (kind, key) not in _SIGHTED:
            _SIGHTED.add((kind, key))
            return None
        kernel = compiled_kernel(kind, key)
    return kernel


def chain_sum(terms: Iterable[float]) -> float:
    """``0.0 + t_0 + t_1 + ...``: the bits of builtin ``sum`` over floats up to
    Python 3.11, whose ``sum`` compensates its rounding from 3.12 on."""
    return reduce(add, terms, 0.0)


def select(cond, a, b):
    """``a if cond else b``, both computed; a trace emits the conditional."""
    return a if cond else b


def guard(cond):
    """``cond``; where it holds, a trace hands the arguments back to the loops."""
    return cond


def _compositions(total: int, n: int) -> Iterable[MultiIndex]:
    # first component descending gives reverse-lexicographic order directly
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


@lru_cache(maxsize=32)  # a 33rd (n, d) enumerates the least recently used again
def _multiindices(n: int, d: int) -> tuple[MultiIndex, ...]:
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    return tuple(alpha for deg in range(d + 1) for alpha in _compositions(deg, n))


def enumerate_multiindices(n: int, d: int) -> list[MultiIndex]:
    """All multi-indices with ``|alpha| <= d`` in graded lexicographic order.

    Within one total degree, indices are ordered with the leading component
    largest first, e.g. ``(1, 0)`` before ``(0, 1)``.  The list has length
    ``comb(n + d, d)``.  It is a new list each call, of tuples shared by every
    call while ``(n, d)`` is among the last 32 pairs enumerated.
    """
    return list(_multiindices(n, d))


def _check_index(alpha: object, n: int) -> MultiIndex:
    if not isinstance(alpha, tuple) or len(alpha) != n:
        raise ValueError(f"multi-index {alpha!r} is not a tuple of length {n}")
    for a in alpha:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            raise ValueError(f"multi-index {alpha!r} has invalid entry {a!r}")
    return alpha


def index_count(n: int, degree: int) -> int | None:
    """``comb(n + degree, n)``, the count of ``|alpha| <= degree``; ``None`` past 2**64.

    Its time does not grow with the count, as a few bytes of input can ask for
    a huge index set: C(N, k), N = n + degree, k = min(n, degree), is at least
    2**k and (N / k)**k, so it exceeds 2**64 wherever k * bits(N) > 8192.
    """
    k = min(n, degree)
    return math.comb(n + degree, k) if k * (n + degree).bit_length() <= 8192 else None


def check_index_set(n: int, degree: int, keys: Iterable[object]) -> list[MultiIndex]:
    """Check that ``keys`` are exactly the multi-indices with ``|alpha| <= degree``.

    Each key must be a tuple of ``n`` non-negative ints; otherwise, or when an
    index is missing or extra, raises ``ValueError`` naming it, and one naming
    both counts when there are not ``comb(n + degree, n)`` keys.  Returns the
    indices as :func:`enumerate_multiindices` lists them.  Keys that are those
    very tuples, in that order, pass without the per-key check.
    """
    keys = list(keys)
    size = index_count(n, degree) if n >= 1 and degree >= 0 else len(keys)
    if len(keys) != size:
        raise ValueError(f"index set must cover exactly |alpha| <= {degree}: {len(keys)} "
                         f"indices given, {'more than 2**64' if size is None else size} needed")
    expected = enumerate_multiindices(n, degree)
    if all(map(is_, keys, expected)):
        return expected
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
    Every value must be finite.  ``values`` holds floats keyed by
    :func:`enumerate_multiindices`, in that order.  ``__init__`` is the one
    constructor, so every instance, library results included, holds this.
    """

    n: int
    degree: int
    values: Mapping[MultiIndex, float]

    def __init__(self, n: int, degree: int, values: Mapping[MultiIndex, float]):
        vals = dict(values)
        expected = check_index_set(n, degree, vals)
        if not all(map(is_, vals, expected)):
            # keyed by the enumerated int tuples, whatever equal keys the caller used
            vals = {alpha: float(vals[alpha]) for alpha in expected}
        elif not all(type(v) is float for v in vals.values()):
            vals = dict(zip(expected, map(float, vals.values())))
        if not all(map(math.isfinite, vals.values())):
            alpha = next(a for a, v in vals.items() if not math.isfinite(v))
            raise ValueError(f"moment {alpha} is not finite: {vals[alpha]}")
        d = self.__dict__
        d["n"] = n
        d["degree"] = degree
        d["values"] = vals

    @classmethod
    def of_1d(cls, vals: Sequence[float]) -> "MomentSequence":
        """Build a 1-D sequence from ``(s_0, ..., s_d)``."""
        return cls(1, len(vals) - 1, dict(zip(enumerate_multiindices(1, len(vals) - 1), vals)))

    def __getitem__(self, alpha: MultiIndex) -> float:
        return self.values[alpha]

    def indices(self) -> list[MultiIndex]:
        return enumerate_multiindices(self.n, self.degree)

    def as_1d_tuple(self) -> tuple[float, ...]:
        if self.n != 1:
            raise ValueError("as_1d_tuple requires n = 1")
        return tuple(self.values.values())

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
    for i, (point, weight) in enumerate(atoms):
        point = tuple(float(x) for x in point)
        if len(point) != n:
            raise ValueError(f"atom point {point} does not have dimension {n}")
        weight = float(weight)
        if not all(map(math.isfinite, (*point, weight))):
            raise ValueError(f"atom {i} is not finite: point {point}, weight {weight}")
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
            if math.isinf(hit[1]):
                raise ValueError(f"atom {i} merges into a weight that is not finite")
    return tuple((tuple(p), float(w)) for p, w in merged)


class AtomicMeasure(Record):
    """Finite weighted sum of point masses; weights may be signed.

    Every point and weight is finite; a NaN or infinite one raises
    ``ValueError`` naming the atom.
    """

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
    ``2 * nu * t_i``.  ``nu`` and every center, weight and time are finite; a
    NaN or infinite one raises ``ValueError`` naming the component.
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
        if not (math.isfinite(nu) and nu > 0.0):
            raise ValueError(f"diffusion coefficient must be finite and > 0, got {nu}")
        comps = []
        for i, (center, weight, time) in enumerate(components):
            center = tuple(map(float, center))
            if len(center) != n:
                raise ValueError(f"center {center} does not have dimension {n}")
            weight, time = float(weight), float(time)
            if not all(map(math.isfinite, (*center, weight, time))):
                raise ValueError(
                    f"component {i} is not finite: center {center}, weight {weight}, "
                    f"time {time}"
                )
            if time < 0.0:
                raise ValueError(f"component time must be >= 0, got {time}")
            comps.append((center, weight, time))
        d = self.__dict__
        d["n"] = n
        d["nu"] = nu
        d["components"] = tuple(comps)

    @property
    def min_time(self) -> float:
        return min(t for _, _, t in self.components)


def oracle_moments_atomic(mu: AtomicMeasure, d: int) -> MomentSequence:
    """Moments of an atomic measure by direct evaluation on the point masses.

    Each moment multiplies powers read from one table per atom and axis.  A
    power beyond the float range raises ``OverflowError`` naming the atom.
    """
    tables = []  # per atom: (weight, one power list per axis)
    for i, (point, w) in enumerate(mu.atoms):
        try:
            tables.append((w, [[x**a for a in range(d + 1)] for x in point]))
        except OverflowError as exc:
            raise OverflowError(
                f"moments of atom {i} (point {list(point)}) overflow at degree {d}: {exc}"
            ) from exc
    return _sum_tables(mu.n, d, tables)


def _sum_tables(n: int, d: int, tables: list) -> MomentSequence:
    """The moments ``sum_i w_i prod_j rows_i[j][alpha_j]`` of the measure whose
    terms are ``tables``: ``(w_i, rows_i)``, one row of powers or moments per
    axis.  Each moment sums its terms with ``math.fsum``."""
    return MomentSequence(n, d, {
        alpha: math.fsum([w * math.prod(map(getitem, rows, alpha)) for w, rows in tables])
        for alpha in enumerate_multiindices(n, d)
    })


@lru_cache(maxsize=None)
def _gauss_coeffs(m: int) -> tuple[tuple[int, int], ...]:
    """``(comb(m, 2j), (2j-1)!!)`` for ``j = 0 .. m // 2``."""
    f = math.factorial
    return tuple(
        (math.comb(m, 2 * j), f(2 * j) // (2**j * f(j))) for j in range(m // 2 + 1)
    )


def _gaussian_moments_1d(mean: float, variance: float, d: int) -> list[float]:
    """``E[(mean + Z)^m]`` for ``Z ~ N(0, variance)`` and ``m = 0 .. d``.

    Each moment is the even-central-moment expansion
    ``sum_j comb(m, 2j) mean**(m-2j) variance**j (2j-1)!!``, summed from
    ``j = 0`` up, with each power of ``mean`` and ``variance`` taken once.
    """
    mp = [mean**p for p in range(d + 1)]
    vp = [variance**j for j in range(d // 2 + 1)]
    out = []
    for m in range(d + 1):
        total = 0.0
        for j, (cb, dfact) in enumerate(_gauss_coeffs(m)):
            total += cb * mp[m - 2 * j] * vp[j] * dfact
        out.append(total)
    return out


def gaussian_moment_1d(mean: float, variance: float, m: int) -> float:
    """``E[(mean + Z)^m]`` for ``Z ~ N(0, variance)``.

    ``variance = 0`` reduces to ``mean**m`` because only the ``j = 0`` term
    of the expansion survives.
    """
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    return _gaussian_moments_1d(mean, variance, m)[m]


def oracle_moments_gaussian_mixture(g: GaussianMixture, d: int) -> MomentSequence:
    """Closed-form moments of a Gaussian mixture.

    Per component the coordinates are independent, so each mixed moment is a
    product of shifted one-dimensional Gaussian moments with variance
    ``2 * nu * t_i``, read from one table per component and axis.  A power
    beyond the float range raises ``OverflowError`` naming the component.
    Recovery does not call it, as its polish computes the residual exactly;
    the ``oracle`` command and the tests do.
    """
    tables = []  # per component: (weight, one moment list per axis)
    for i, (center, weight, time) in enumerate(g.components):
        var = 2.0 * g.nu * time
        try:
            tables.append((weight, [_gaussian_moments_1d(p, var, d) for p in center]))
        except OverflowError as exc:
            raise OverflowError(
                f"moments of component {i} (center {list(center)}, time {time!r}) "
                f"overflow at degree {d}: {exc}"
            ) from exc
    return _sum_tables(g.n, d, tables)


@lru_cache(maxsize=None)
def _heat_factors(m: int) -> tuple[float, ...]:
    """``m! / ((m-2j)! j!)`` for ``j = 0 .. m // 2``, rounded to floats.

    A factor beyond the float range (from ``m = 266`` on) is ``inf``, so a
    product with it is not finite rather than an error.
    """
    f = math.factorial
    return tuple(_float_or_inf(f(m) // (f(m - 2 * j) * f(j))) for j in range(m // 2 + 1))


def _float_or_inf(n: int) -> float:
    try:
        return float(n)
    except OverflowError:
        return math.inf


def _heat_table_1d(vals: Sequence[float], nu: float) -> list[list[float]]:
    """``c[m][j]`` with ``s_m(t) = sum_j c[m][j] t**j`` under 1-D heat flow
    from the moments ``vals`` of ``s(0)``.

    The closed binomial-factorial solution of the heat recursion:

        c[m][j] = m! / ((m-2j)! j!) * s_{m-2j}(0) * nu**j,   0 <= j <= m/2.

    A power of ``nu`` beyond the float range raises ``OverflowError`` naming
    ``nu``, and a coefficient that is not finite one naming its ``(m, j)``.
    """
    try:
        nup = [nu**j for j in range((len(vals) + 1) // 2)]
    except OverflowError as exc:
        raise OverflowError(f"the heat table overflows at nu = {nu!r}: {exc}") from exc
    table = [
        [c * vals[m - 2 * j] * nup[j] for j, c in enumerate(_heat_factors(m))]
        for m in range(len(vals))
    ]
    for m, row in enumerate(table):
        for j, c in enumerate(row):
            if not math.isfinite(c):
                raise OverflowError(f"the heat table overflows: coefficient ({m}, {j}) "
                                    f"of t**{j} in s_{m} is not finite")
    return table


def _adaptive_integral(
    f: Callable[[tuple[float, ...]], float],
    box: Sequence[tuple[float, float]],
    tol: float,
) -> tuple[float, float]:
    """Nested adaptive quadrature over a box; returns (value, error estimate)."""
    quad = optional_import("scipy.integrate", "oracle_moments_quadrature").quad

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
