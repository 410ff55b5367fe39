"""Time evolution of truncated moment sequences.

Moment sequences evolve in closed form under the heat, transport, and
combined flows; backward heat evolution locates the distance to the moment
cone boundary, and interior 1-D sequences recover a Gaussian-mixture
representing measure.  Every computation has an independent oracle.
"""

__version__ = "0.1.0"

from . import core

# Every public name and the submodule that defines it: the one list of the
# package's surface.  __all__, the submodule names and the bindings below are
# read off it.  Only core's names are bound at import; every other name
# resolves on first access (PEP 562), so ``import momentflow`` loads core
# alone, and a 1-D distance or recovery adds the Hankel, boundary and recovery
# modules but no flow code.  None of them imports numpy at module level; only
# the Hankel and root helpers (classify_psd, kernel_polynomial,
# atoms_from_kernel, weights_from_atoms, HankelMatrix) load it, when called.
_HOMES = {
    "ATOM_MERGE_TOL": "core",
    "AtomicMeasure": "core",
    "GaussianMixture": "core",
    "MomentSequence": "core",
    "QuadratureError": "core",
    "enumerate_multiindices": "core",
    "linear_combination": "core",
    "oracle_moments_atomic": "core",
    "oracle_moments_gaussian_mixture": "core",
    "oracle_moments_quadrature": "core",
    "riesz_apply": "core",
    "stieltjes_sequence": "core",
    "ExpPoly": "exppoly",
    "Term": "exppoly",
    "canonicalize": "exppoly",
    "evaluate": "exppoly",
    "integrate_with_rate": "exppoly",
    "linear_combine": "exppoly",
    "shift_rate": "exppoly",
    "FlowParams": "flows",
    "MomentFlow": "flows",
    "PastHorizonError": "flows",
    "combined_flow": "flows",
    "evaluate_flow": "flows",
    "evolve_gaussian_mixture": "flows",
    "heat_dual_poly": "flows",
    "heat_flow": "flows",
    "heat_flow_1d_closed": "flows",
    "transport_atomic": "flows",
    "transport_dual_poly": "flows",
    "transport_flow": "flows",
    "HankelMatrix": "hankel",
    "PsdReport": "hankel",
    "build_hankel": "hankel",
    "classify_psd": "hankel",
    "kernel_polynomial": "hankel",
    "BoundaryReport": "boundary",
    "BracketingError": "boundary",
    "NotInteriorError": "boundary",
    "boundary_project": "boundary",
    "distance_upper_bound": "boundary",
    "heat_distance_1d": "boundary",
    "ComplexRootsError": "recovery",
    "NonPositiveWeightError": "recovery",
    "RecoveryError": "recovery",
    "RecoveryResult": "recovery",
    "atoms_from_kernel": "recovery",
    "augment_odd": "recovery",
    "recover_gaussian_mixture": "recovery",
    "weights_from_atoms": "recovery",
}
__all__ = sorted(_HOMES)
_SUBMODULES = frozenset(_HOMES.values()) | {"cli", "jsonio"}
globals().update({name: getattr(core, name) for name, module in _HOMES.items()
                  if module == "core"})


def __getattr__(name: str):
    module = _HOMES.get(name, name if name in _SUBMODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that -X importtime lists the
    # module; importing it binds the submodule in this namespace
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
