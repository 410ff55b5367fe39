"""The tracer behind :func:`.core.trace`: recording values and their source.

Only a kernel compile, on the second use of a shape, traces a loop, so the
first trace imports this module and importing the package does not.  The
source it writes names what the loop names, as the loop wrote it
(``math.fsum``, a hand-back to ``_lstsq``), so the kernel runs in the
globals of the loop's module.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import count
from types import FunctionType

from .core import TraceError


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
    """See :func:`.core.trace`, which imports this module on its first call."""
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

