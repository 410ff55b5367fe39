"""The public names of the package and their lazy resolution."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentflow

from helpers import GOLDEN_COMMANDS, ROOT, write_golden_inputs

# Where each public name is defined; written out here rather than read from
# the package, so the test checks the package's own table.
HOMES = {
    "core": [
        "ATOM_MERGE_TOL", "AtomicMeasure", "GaussianMixture", "MomentSequence",
        "QuadratureError", "enumerate_multiindices", "linear_combination",
        "oracle_moments_atomic", "oracle_moments_gaussian_mixture",
        "oracle_moments_quadrature", "riesz_apply", "stieltjes_sequence",
    ],
    "exppoly": [
        "ExpPoly", "Term", "canonicalize", "evaluate", "integrate_with_rate",
        "linear_combine", "shift_rate",
    ],
    "flows": [
        "FlowParams", "MomentFlow", "PastHorizonError", "combined_flow",
        "evaluate_flow", "evolve_gaussian_mixture", "heat_dual_poly", "heat_flow",
        "heat_flow_1d_closed", "transport_atomic", "transport_dual_poly",
        "transport_flow",
    ],
    "hankel": [
        "HankelMatrix", "PsdReport", "build_hankel", "classify_psd",
        "kernel_polynomial",
    ],
    "boundary": [
        "BoundaryReport", "BracketingError", "NotInteriorError", "boundary_project",
        "distance_upper_bound", "heat_distance_1d",
    ],
    "recovery": [
        "ComplexRootsError", "NonPositiveWeightError", "RecoveryError",
        "RecoveryResult", "atoms_from_kernel", "augment_odd",
        "recover_gaussian_mixture", "weights_from_atoms",
    ],
}


def test_all_lists_every_public_name_once():
    names = [name for names in HOMES.values() for name in names]
    assert sorted(momentflow.__all__) == sorted(names)
    assert len(set(momentflow.__all__)) == len(momentflow.__all__)


@pytest.mark.parametrize(
    "module, name", [(m, name) for m, names in HOMES.items() for name in names]
)
def test_name_resolves_to_its_module_object(module, name):
    home = importlib.import_module(f"momentflow.{module}")
    assert getattr(momentflow, name) is getattr(home, name)


@pytest.mark.parametrize(
    "module", ["boundary", "cli", "core", "exppoly", "flows", "hankel", "jsonio",
               "recovery"],
)
def test_submodule_attribute(module):
    assert getattr(momentflow, module) is importlib.import_module(f"momentflow.{module}")


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from momentflow import *", namespace)
    assert set(momentflow.__all__) <= set(namespace)
    assert set(momentflow.__all__) <= set(dir(momentflow))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        momentflow.no_such_name


def test_first_lazy_name_loads_its_module_without_numpy():
    src = str(Path(momentflow.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import momentflow as mf\n"
        "mf.evaluate_flow(mf.heat_flow(mf.MomentSequence.of_1d([1, 0, 2]), 1.0), 1.0)\n"
        "print('numpy' in sys.modules, 'momentflow.boundary' in sys.modules)\n"
        "mf.recover_gaussian_mixture(mf.MomentSequence.of_1d([1, 0, 3, 0, 25]))\n"
        "print('numpy' in sys.modules, 'momentflow.boundary' in sys.modules)\n"
        "mf.classify_psd(mf.build_hankel(mf.MomentSequence.of_1d([1, 0, 1]), 1))\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
    )
    # only the eigenvalue helpers import numpy, when they are called
    assert out.stdout.split("\n")[:3] == ["False False", "False True", "True"]


def test_every_traced_site_resolves():
    # perfbench/spans.py wraps these module attributes with getattr and no
    # default; a missing one stops the traced benchmark server from starting
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}" for module, attr, *_ in spans.SITES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_traced_cli_records_the_parse(tmp_path):
    # the benchmark's cli.parse span wraps build_parser and the parse_args of
    # the parser it returns; a parser without an assignable parse_args would
    # leave cli.parse_ms empty
    root = Path(__file__).resolve().parents[1]
    momentflow.jsonio.dump_json(
        tmp_path / "s.json",
        momentflow.jsonio.sequence_to_dict(momentflow.MomentSequence.of_1d([1, 0, 0])),
    )
    code = (
        "import json, sys\n"
        "import momentflow.cli as cli\n"
        "from spans import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "code = cli.main(['evolve', '--equation', 'heat', '--t', '1',\n"
        "                 '--in', 's.json', '--out', 'o.json'])\n"
        "print(code, json.dumps([s[0] for s in tracer.spans]))\n"
    )
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True,
    )
    exit_code, names = out.stdout.split(" ", 1)
    assert exit_code == "0"
    names = json.loads(names)
    assert names.count("cli.parse") == 2  # build_parser, then parse_args
    assert "cli.command" in names


_WITHOUT_NUMPY = '''
import json, sys

class Refuse:
    """Refuse numpy and scipy, as an environment without them would."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, Refuse())

import momentflow as mf
from momentflow import core
from momentflow.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
s = mf.MomentSequence.of_1d([1, 0, 3, 0, 25])
# the second recovery of a shape compiles its kernels
reprs = {repr(mf.recover_gaussian_mixture(s)) for _ in range(2)}
kinds = sorted({kind for kind, _ in core._KERNELS})
distance = mf.heat_distance_1d(s, 1.0).distance
s2 = mf.MomentSequence(2, 4, {a: 1.0 + a[0] - 0.5 * a[1]
                              for a in mf.enumerate_multiindices(2, 4)})
flows = [mf.heat_flow(s2, 0.5), mf.transport_flow(s2, [-0.4, 0.7]),
         mf.combined_flow(s2, 0.5, [-0.4, 0.7]), mf.heat_flow_1d_closed(s, 1.0)]
evolved = [mf.evaluate_flow(f, 0.3).degree for f in flows]
errors = []
for helper in (lambda: mf.build_hankel(s, 2), lambda: mf.classify_psd(None),
               lambda: mf.kernel_polynomial(None),
               lambda: mf.atoms_from_kernel([-1.0, 0.0, 1.0]),
               lambda: mf.weights_from_atoms([1.0], s),
               lambda: mf.oracle_moments_quadrature(lambda x: 1.0, [(0.0, 1.0)], 2, 1e-8)):
    try:
        helper()
    except ImportError as exc:
        errors.append(str(exc))
loaded = [m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy")]
print(json.dumps([codes, len(reprs), kinds, distance, evolved, errors, loaded]))
'''


def test_pipeline_and_cli_run_without_numpy_or_scipy(tmp_path, monkeypatch):
    # numpy and scipy are optional: every CLI command and the pipeline run
    # without them, and each helper that needs them says how to install them
    from momentflow import jsonio
    from momentflow.cli import main

    write_golden_inputs(tmp_path)
    jsonio.dump_json(tmp_path / "mixture.json", {
        "type": "gaussian_mixture", "n": 1, "nu": 0.7,
        "components": [{"center": [-1.3], "weight": 0.4, "time": 0.2},
                       {"center": [1.7], "weight": 0.6, "time": 1.1}]})
    jsonio.dump_json(tmp_path / "atoms.json", {
        "type": "atomic", "n": 2,
        "atoms": [{"point": [0.5, -1.0], "weight": 0.3}, {"point": [2.0, 1.0], "weight": 0.7}]})
    oracles = {
        "mixture.json": ["oracle", "--measure", "mixture.json", "--degree", "6"],
        "atoms.json": ["oracle", "--measure", "atoms.json", "--degree", "4"],
    }
    argv = [[*args, "--out", f"blocked_{name}"]
            for name, args in {**GOLDEN_COMMANDS, **oracles}.items()]
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(argv)], capture_output=True,
        text=True, cwd=tmp_path, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    codes, reprs, kinds, distance, evolved, errors, loaded = json.loads(out.stdout)
    assert codes == [0] * len(argv) and loaded == []
    assert reprs == 1 and kinds == ["jacobian", "residual", "rule", "search", "solve"]
    assert distance == 1.0 and evolved == [4, 4, 4, 4]
    names = ["HankelMatrix", "classify_psd", "kernel_polynomial", "atoms_from_kernel",
             "weights_from_atoms", "oracle_moments_quadrature"]
    assert len(errors) == len(names)
    for name, error in zip(names, errors):
        assert error.startswith(f"{name} needs ")
        assert "pip install 'momentflow[oracle]'" in error
    for name in GOLDEN_COMMANDS:
        assert ((tmp_path / f"blocked_{name}").read_bytes()
                == (ROOT / "tests" / "golden" / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    for name, args in oracles.items():  # the same bytes as with numpy importable
        assert main([*args, "--out", f"here_{name}"]) == 0
        assert (tmp_path / f"blocked_{name}").read_bytes() == (
            tmp_path / f"here_{name}").read_bytes()
