"""The public names of the package and their lazy resolution."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentflow

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
