"""Time evolution of truncated moment sequences.

Moment sequences evolve in closed form under the heat, transport, and
combined flows; backward heat evolution locates the distance to the moment
cone boundary, and interior 1-D sequences recover a Gaussian-mixture
representing measure.  Every computation has an independent oracle.
"""

__version__ = "0.1.0"

from .core import (
    ATOM_MERGE_TOL,
    AtomicMeasure,
    GaussianMixture,
    MomentSequence,
    QuadratureError,
    enumerate_multiindices,
    linear_combination,
    oracle_moments_atomic,
    oracle_moments_gaussian_mixture,
    oracle_moments_quadrature,
    riesz_apply,
    stieltjes_sequence,
)

# Every name outside core resolves on first access (PEP 562), so
# ``import momentflow`` loads core alone, and a 1-D distance or recovery adds
# the Hankel, boundary and recovery modules but no flow code.  None of them
# imports numpy at module level; only the Hankel and root helpers
# (classify_psd, kernel_polynomial, atoms_from_kernel, weights_from_atoms,
# HankelMatrix) load it, when called.
_LAZY = {
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
# core is bound by the import above
_SUBMODULES = frozenset({"boundary", "cli", "exppoly", "flows", "hankel", "jsonio",
                         "recovery"})


def __getattr__(name: str):
    module = _LAZY.get(name, name if name in _SUBMODULES else None)
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


__all__ = [
    "ATOM_MERGE_TOL",
    "AtomicMeasure",
    "BoundaryReport",
    "BracketingError",
    "ComplexRootsError",
    "ExpPoly",
    "FlowParams",
    "GaussianMixture",
    "HankelMatrix",
    "MomentFlow",
    "MomentSequence",
    "NonPositiveWeightError",
    "NotInteriorError",
    "PastHorizonError",
    "PsdReport",
    "QuadratureError",
    "RecoveryError",
    "RecoveryResult",
    "Term",
    "atoms_from_kernel",
    "augment_odd",
    "boundary_project",
    "build_hankel",
    "canonicalize",
    "classify_psd",
    "combined_flow",
    "distance_upper_bound",
    "enumerate_multiindices",
    "evaluate",
    "evaluate_flow",
    "evolve_gaussian_mixture",
    "heat_distance_1d",
    "heat_dual_poly",
    "heat_flow",
    "heat_flow_1d_closed",
    "integrate_with_rate",
    "kernel_polynomial",
    "linear_combination",
    "linear_combine",
    "oracle_moments_atomic",
    "oracle_moments_gaussian_mixture",
    "oracle_moments_quadrature",
    "recover_gaussian_mixture",
    "riesz_apply",
    "shift_rate",
    "stieltjes_sequence",
    "transport_atomic",
    "transport_dual_poly",
    "transport_flow",
    "weights_from_atoms",
]
