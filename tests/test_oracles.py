"""The exact oracles of :mod:`oracles`: independent of the library, and right
on closed forms."""

import ast
import sys
from fractions import Fraction
from pathlib import Path

from oracles import hankel_times, mixture_moments, psd_rank


def test_the_oracles_import_the_standard_library_only():
    # no momentflow, no numpy: an oracle that shared the library's code
    # would share its mistakes
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and all(m.split(".")[0] in sys.stdlib_module_names for m in modules), modules


def test_closed_forms():
    # N(0, 1) and the two atoms at -1 and 1 (var 0), whose Hankel matrix of
    # order 2 has rank 2 with kernel (-1, 0, 1)
    assert mixture_moments([0.0], [1.0], 1.0, 4) == [1, 0, 1, 0, 3]
    two = mixture_moments([-1.0, 1.0], [0.5, 0.5], 0.0, 4)
    assert two == [1, 0, 1, 0, 1]
    assert psd_rank(two) == 2 and psd_rank([1, 0, -1]) is None
    assert hankel_times(two, [-1, 0, 1]) == [0, 0, 0]
    assert mixture_moments([0.5], [0.25], 0.75, 2)[2] == Fraction(1, 4) * (Fraction(1, 4) + Fraction(3, 4))
