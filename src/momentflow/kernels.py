"""The source of every compiled kernel, and :data:`KINDS`, the one table of kinds.

A kernel is straight-line code for one key (shape) of a loop.  The search
and the boundary rule are written by hand (:func:`_search_source`,
:func:`_rule_source`), as the data choose how many probes and QL sweeps
run; the polish's residual and Gauss-Newton step are traced from their loops
(:func:`trace`), so their bits are the loops' by construction.  The first
compile (:func:`.core.compiled_kernel`) imports this module, so a process
that compiles nothing does not load it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import count
from types import FunctionType

from . import boundary, hankel, recovery
from .flows import _heat_factors


class TraceError(TypeError):
    """A traced loop branched on a traced value, or hashed one."""


def _op(form: str, prec: int, reqs: tuple, pure: bool = False, swap: bool = False) -> Callable:
    return lambda *a: _Value(a[0].tape, form, a[::-1] if swap else a, prec, reqs, pure)


class _Value:
    """A traced loop's input, or ``form`` of ``args`` recorded on ``tape``.

    ``prec`` is its precedence (15 for a name, call or literal, 0 for a
    statement) and ``reqs[i]`` the least that ``args[i]`` may have without
    parentheses.  Computing a pure value cannot raise.  Only a pure value
    folds into a ``lazy`` slot.
    """

    __slots__ = ("tape", "form", "args", "prec", "reqs", "pure", "lazy", "parts", "name",
                 "uses", "folded")

    def __init__(self, tape, form=None, args=(), prec=15, reqs=(), pure=False, lazy=(),
                 parts=(), name=None):
        self.tape, self.form, self.args, self.prec, self.reqs, self.pure = (
            tape, form, args, prec, reqs, pure)
        self.lazy, self.parts, self.name, self.uses, self.folded = lazy, parts, name, 0, False
        if form is not None:
            tape.append(self)
            for a in args:
                if isinstance(a, _Value):
                    a.uses += 1

    def __bool__(self):
        raise TraceError("a traced loop branches on a traced value; use select or guard")

    def __hash__(self):
        raise TraceError("a traced loop hashes a traced value")

    __neg__ = _op("-{}", 12, (12,), True)
    __abs__ = _op("abs({})", 15, (1,), True)
    bit_length = _op("{}.bit_length()", 15, (15,))

    def as_integer_ratio(self):
        parts = (_Value(self.tape), _Value(self.tape))
        return _Value(self.tape, "{}.as_integer_ratio()", (self,), 15, (15,), parts=parts).parts


for _name, _symbol, _prec in zip(
    "add sub mul truediv floordiv lshift lt le eq ne gt ge".split(),
    "+ - * / // << < <= == != > >=".split(), (10, 10, 11, 11, 11, 9, *[5] * 6),
):
    _reqs = (_prec, _prec + 1) if _prec > 5 else (6, 6)
    for _swap in (False, True):  # a reflected operator takes its operands the other way
        setattr(_Value, f"__{'r' * _swap}{_name}__", _op(
            f"{{}} {_symbol} {{}}", _prec, _reqs, _symbol not in ("/", "//", "<<"), _swap))


def _times(record: Callable) -> Callable:
    # 1 * x and x * 1 are x for an int or a float x, so the int 1 records nothing
    return lambda a, b: a if type(b) is int and b == 1 else record(a, b)


_Value.__mul__, _Value.__rmul__ = _times(_Value.__mul__), _times(_Value.__rmul__)


def trace(fn: Callable, kind: str, *shapes: object) -> str:
    """Source of ``def kind(<fn's parameters>)``: ``fn`` run once on ``shapes``.

    A shape ``float`` is a traced scalar, a list or tuple of shapes a sequence
    of them, any other shape a static argument.  The source performs what
    ``fn`` did to traced values, in order, so its bits are those of ``fn``.
    ``float``, ``max`` and ``math.<name>`` are written as the loop wrote them,
    ``select`` is a conditional, and ``guard`` returns ``fn``, by its own
    name, of the arguments; any other branch on a traced value (``all`` over
    traced comparisons among them) raises :class:`TraceError`.  A value used
    once is folded into its use if it is pure (``+ - *``, comparisons,
    ``abs`` and ``-`` on the loops' floats and ints) or if nothing that may
    raise comes between, so the kernel raises what ``fn`` raises.  A factor
    of the int ``1`` (``1 * x``, ``x * 1``) is left out, which is exact for
    an int or a float ``x``; ``x * 1.0`` is kept, as it makes an int a float.
    """
    tape: list[_Value] = []
    params = fn.__code__.co_varnames[: fn.__code__.co_argcount]

    def display(r, flat):  # r with "{}" for each traced value, collected in flat
        if isinstance(r, _Value):
            flat.append(r)
            return "{}"
        if not isinstance(r, (list, tuple)):
            return repr(r)
        inner = ", ".join(display(x, flat) for x in r)
        return f"[{inner}]" if isinstance(r, list) else f"({inner}{',' * (len(r) == 1)})"

    def call(name, real):
        def record(*args):
            args, flat = [list(a) if hasattr(a, "__iter__") else a for a in args], []
            form = f"{name}({', '.join(display(a, flat) for a in args)})"
            return _Value(tape, form, flat, 15, (1,) * len(flat)) if flat else real(*args)
        return record

    def select_(cond, a, b):  # the choice not taken is computed in the loops, not here
        return _Value(tape, "{1} if {0} else {2}", (cond, a, b), 1, (2, 2, 2), True, lazy=(1, 2))

    def guard_(cond):  # the trace goes on as if cond were false
        _Value(tape, f"if {{}}: return {fn.__name__}({', '.join(params)})", (cond,), 0, (0,))
        return False

    def build(shape, name=None):  # a parameter keeps its name, which a hand-back passes on
        if isinstance(shape, (list, tuple)):
            return type(shape)(map(build, shape))
        return _Value(tape, name=name) if shape is float else shape

    math_calls = type("math", (), {"__getattr__": lambda _, n: call(f"math.{n}", getattr(math, n))})
    env = {**fn.__globals__, "float": call("float", float), "max": call("max", max),
           "select": select_, "guard": guard_, "math": math_calls()}
    args, returned = list(map(build, shapes, params)), []
    form = "return " + display(FunctionType(fn.__code__, env)(*args), returned)
    _Value(tape, form, returned, 0, [1] * len(returned))
    effects = []  # the statements that may raise, in order
    for node in tape:
        for i in reversed(range(len(node.args))):
            a = node.args[i]
            if isinstance(a, _Value) and a.form and a.uses == 1 and (
                    a.pure or i not in node.lazy and effects and effects[-1] is a):
                a.folded = True
                if not a.pure:
                    effects.pop()
                    node.pure = False
        if not node.pure:
            effects.append(node)

    # backwards, a value's first use is its last: it takes a free local name
    # there and frees it at its definition; a pure value nothing uses is left out
    pool, fresh, lines = [], count(), []

    def text(a, req):
        if not isinstance(a, _Value):
            s = repr(a)
            prec = 12 if s[0] == "-" else 15
        elif a.folded:
            s, prec = a.form.format(*map(text, a.args, a.reqs)), a.prec
        else:
            a.name = a.name or (pool.pop() if pool else f"_{next(fresh)}")
            s, prec = a.name, 15
        return f"({s})" if prec < req else s

    def free(v):
        pool.extend([v.name] if v.name else [])
        return v.name or "_"

    for node in reversed(tape):
        if not node.folded and (node.uses or not node.pure or not node.prec):
            outs = ", ".join(map(free, node.parts or (node,))) + " = " if node.prec else ""
            lines.append(outs + node.form.format(*map(text, node.args, node.reqs)))
    for p, a in reversed([*zip(params, args)]):
        if isinstance(a, (list, tuple)):
            lines.append(display(a, unpacked := []).format(*map(free, unpacked)) + f" = {p}")
    return f"def {kind}({', '.join(params)}):\n" + "".join(f"    {s}\n" for s in lines[::-1])


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
    """Source of the order-``order`` search: :func:`.boundary._loop_search` unrolled.

    ``search(s, order, tol)`` returns ``(u, boundary values)`` of the moments
    ``s``, the crossing on the clock ``u = nu t``, with the bits of the loops;
    ``nu`` is the caller's (:func:`.boundary._unclock`).  It hands back to
    the loops, by returning ``_loop_search(s, order, tol)``, at the interior
    test only.  A heat table entry that is not finite needs no test of its
    own: the Horner sum of its row at ``t = 0`` is NaN (``inf * 0.0``), so
    ``probe(0.0)`` fails the interior test.  Past that test it raises what
    the loops raise: the bound is their ``s2 / (2.0 * s0)``, the regula
    falsi is theirs (:func:`.boundary._first_crossing`), and the boundary
    sums take their powers and products.

    * The signed heat table in locals ``c{m}_{j}``: the products of
      :func:`.flows._heat_table_1d` at nu = 1 in their operand order (its
      factor ``nu**j = 1.0`` is exact and left out), odd powers of t negated
      as ``0.0 - c`` and even ones as ``c + 0.0``, which turns a zero of
      either sign into ``+0.0`` as the loops do.
    * ``probe(t)``, nested over that table, is :func:`.boundary._pivot_probe` one
      statement per step: the Horner sum over each row from its top
      coefficient (the loops' ``0.0 * t + c`` is ``c`` at the finite
      ``t >= 0`` searched), then :func:`_chebyshev_lines` over a finite
      ``s_0``.  ``probe(0.0)`` is the interior test: the ``beta_m`` of the
      Chebyshev pass over ``s``, zero signs aside, which never move a
      positive pivot.  The bound follows, then the loops' regula falsi on
      ``probe``.
    * Each boundary moment is the ``fsum`` of every term of its row.  A zero
      coefficient adds a ``+0.0`` term, which ``fsum`` (correctly rounded,
      never ``-0.0``) ignores, where the loops leave it out.
    """
    width = 2 * order + 1
    rows = [[f"c{m}_{j}" for j in range(m // 2 + 1)] for m in range(width)]
    out = ["def search(s, order, tol):",
           f"    {', '.join(f's{m}' for m in range(width))}, = s"]
    for m, factors in enumerate(map(_heat_factors, range(width))):
        out.append(f"    c{m}_0 = s{m} + 0.0")
        for j in range(1, len(factors)):
            factor = repr(factors[j]) if math.isfinite(factors[j]) else "math.inf"
            product = f"{factor} * s{m - 2 * j}"
            out.append(f"    c{m}_{j} = " + (f"0.0 - {product}" if j % 2 else f"{product} + 0.0"))
    out.append("    def probe(t):")
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
    powers = "\n".join(f"    p{j} = hi ** {j}" for j in range(1, order + 1))
    return "\n".join(out) + f"""
        return b{order}
    f0 = probe(0.0)
    if not f0 > 0.0:
        return _loop_search(s, order, tol)
    ub = s2 / (2.0 * s0)
    hi = _first_crossing(probe, ub, f0, tol)
{powers}
    return hi, ({sums},)
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
    """Source of the order-``order`` boundary rule: :func:`.boundary._loop_rule` unrolled.

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
    out.append(f"    tiny = {hankel.RANK_TOL!r} * (1.0 + abs(s2 / s0))")
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


# kind: (the namespace it runs in, the writer of its source for a key).  The
# namespace is the globals of the kind's loop, where the kernel finds the
# helpers it calls and the loop it hands back to; a traced kind runs its loop
# once on recording values of the key's shapes.
KINDS: dict[str, tuple[dict, Callable[..., str]]] = {
    "search": (vars(boundary), _search_source),  # key (Hankel order,)
    "rule": (vars(boundary), _rule_source),  # key (Hankel order,)
    "residual": (vars(recovery), lambda k, degree: trace(
        recovery._exact_residuals, "residual", [float] * k, [float] * k, float,
        [float] * (degree + 1))),
    "step": (vars(recovery), lambda k, degree: trace(
        recovery._gauss_newton_step, "step", [float] * k, [float] * k, float,
        [float] * (degree + 1), [float] * (degree + 1))),
}
