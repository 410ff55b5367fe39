"""Every global name a compiled kernel loads resolves where the kernel runs.

A kernel runs in the namespace that ``kernels.KINDS`` gives its kind, the
globals of its loop's module, and hands back to its loop by name, from a
branch that few inputs take: a misspelt name there would fail only on such
an input.
"""

import ast
import builtins
import dis
from pathlib import Path
from types import CodeType

import pytest

from momentflow.kernels import KINDS

# search and rule at Hankel orders 1-8 and 31; the traced kinds at the shapes
# of a recover-1d op with k = 2..8 atoms (degree 2k)
KEYS = [(kind, (m,)) for kind in ("search", "rule") for m in [*range(1, 9), 31]] + [
    (kind, (k, 2 * k)) for k in range(2, 9) for kind in ("residual", "step")
]
ROOT = Path(__file__).resolve().parents[1]


def _sighted_kinds():
    """The kinds that ``src/`` passes to ``sighted_kernel``, read with ``ast``."""
    kinds = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sighted_kernel":
                kinds.add(ast.literal_eval(node.args[0]))
    return kinds


def _readme_kinds():
    """The first column of the README's kernel table, which heads ``| kind |``."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip().startswith("| kind |"))
    kinds = []
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.strip().startswith("|"):
            break
        kinds.append(line.split("|")[1].strip().strip("`"))
    return kinds


def _global_loads(code):
    """``(name, attribute or None)`` of each global that ``code`` (or code
    nested in it) loads, with the attribute read straight off it."""
    ops = list(dis.get_instructions(code))
    for op, after in zip(ops, ops[1:] + [None]):
        if op.opname == "LOAD_GLOBAL":
            read = after is not None and after.opname in ("LOAD_ATTR", "LOAD_METHOD")
            yield op.argval, after.argval if read else None
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _global_loads(const)


def test_all_four_kinds_are_covered():
    assert {kind for kind, _ in KEYS} == set(KINDS) == _sighted_kinds()
    assert len(KINDS) == 4


def test_the_readme_kernel_table_names_every_kind_once():
    kinds = _readme_kinds()
    assert len(kinds) == len(set(kinds))
    assert set(kinds) == _sighted_kinds()


@pytest.mark.parametrize("kind, key", KEYS, ids=[f"{kind}-{key}" for kind, key in KEYS])
def test_every_global_a_kernel_loads_resolves(kind, key):
    namespace, source = KINDS[kind]
    loads = set(_global_loads(compile(source(*key), f"<{kind} kernel {key}>", "exec")))
    for name, attr in loads:
        assert name in namespace or hasattr(builtins, name), (kind, key, name)
        value = namespace[name] if name in namespace else getattr(builtins, name)
        assert attr is None or hasattr(value, attr), (kind, key, f"{name}.{attr}")
