"""JSON schemas shared by the library and the CLI.

Serialization is deterministic: keys are sorted, floats use shortest
round-trip decimal formatting, and list orders are fixed (moments and flow
entries in graded index order).  Identical inputs therefore produce
byte-identical files.  Output is strict RFC 8259 JSON: NaN and infinities
are never written, and an infinite distance or bound is encoded as ``null``
next to ``"unbounded": true``.

Importing this module loads :mod:`.core` alone.  :func:`exppoly_from_dict`
and :func:`flow_from_dict` import the flow modules whose objects they build,
and :func:`boundary_report_from_dict` the boundary module, so a process that
neither builds nor reads a flow loads no flow code.
"""

from __future__ import annotations

import json
import math
import os
import sys

from .core import AtomicMeasure, GaussianMixture, MomentSequence

TYPE_CHECKING = False
if TYPE_CHECKING:  # imported only where a flow or a report is built
    from .boundary import BoundaryReport
    from .exppoly import ExpPoly
    from .flows import MomentFlow
    from .recovery import RecoveryResult


def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def dump_json(path: str | os.PathLike, data) -> None:
    text = dumps(data)  # before the file is opened, so a failure writes none
    with open(path, "w") as fh:
        fh.write(text)


def load_json(path: str | os.PathLike):
    with open(path) as fh:
        return json.load(fh)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _int(value, what: str) -> int:
    """A JSON integer; a bool, float or string is rejected, not converted."""
    _require(type(value) is int, f"{what} must be an integer, got {value!r}")
    return value


def _bool(value, what: str) -> bool:
    """A JSON boolean; a string, number or null is rejected, not converted."""
    _require(type(value) is bool, f"{what} must be true or false, got {value!r}")
    return value


def _num(value, what: str) -> float:
    """A finite JSON number; a bool or string is rejected, not converted."""
    _require(type(value) in (int, float), f"{what} must be a number, got {value!r}")
    # compares an int exactly, so one beyond the float range is not finite either
    _require(abs(value) <= sys.float_info.max, f"{what} is not finite: {value!r}")
    return float(value)


def sequence_to_dict(s: MomentSequence) -> dict:
    return {
        "n": s.n,
        "degree": s.degree,
        "moments": [
            {"alpha": list(alpha), "value": s[alpha]} for alpha in s.indices()
        ],
    }


def sequence_from_dict(data: dict) -> MomentSequence:
    _require(isinstance(data, dict), "sequence must be a JSON object")
    for key in ("n", "degree", "moments"):
        _require(key in data, f"sequence is missing key {key!r}")
    values = {}
    for item in data["moments"]:
        _require(
            isinstance(item, dict) and "alpha" in item and "value" in item,
            "each moment needs 'alpha' and 'value'",
        )
        alpha = tuple(_int(x, "moment index") for x in item["alpha"])
        _require(alpha not in values, f"duplicate index {alpha}")
        values[alpha] = _num(item["value"], f"moment {alpha}")
    return MomentSequence(_int(data["n"], "n"), _int(data["degree"], "degree"), values)


def atomic_to_dict(mu: AtomicMeasure) -> dict:
    return {
        "type": "atomic",
        "n": mu.n,
        "atoms": [{"point": list(p), "weight": w} for p, w in mu.atoms],
    }


def gaussian_mixture_to_dict(g: GaussianMixture) -> dict:
    return {
        "type": "gaussian_mixture",
        "n": g.n,
        "nu": g.nu,
        "components": [
            {"center": list(c), "weight": w, "time": t} for c, w, t in g.components
        ],
    }


def measure_from_dict(data: dict) -> AtomicMeasure | GaussianMixture:
    _require(isinstance(data, dict) and "type" in data, "measure needs a 'type' key")
    kind = data["type"]
    if kind == "atomic":
        _require("n" in data and "atoms" in data, "atomic measure needs 'n', 'atoms'")
        atoms = tuple(
            (
                tuple(_num(x, "atom point") for x in a["point"]),
                _num(a["weight"], "atom weight"),
            )
            for a in data["atoms"]
        )
        return AtomicMeasure(_int(data["n"], "n"), atoms)
    if kind == "gaussian_mixture":
        for key in ("n", "nu", "components"):
            _require(key in data, f"gaussian mixture needs key {key!r}")
        comps = tuple(
            (
                tuple(_num(x, "component center") for x in c["center"]),
                _num(c["weight"], "component weight"),
                _num(c["time"], "component time"),
            )
            for c in data["components"]
        )
        return GaussianMixture(_int(data["n"], "n"), _num(data["nu"], "nu"), comps)
    raise ValueError(f"unknown measure type {kind!r}")


def exppoly_to_dict(f: ExpPoly) -> dict:
    terms = []
    for t in f.terms:
        item = {"coeff": t.coeff, "power": t.power, "rate": list(t.rate)}
        if t.resonant:
            item["resonant"] = True
        terms.append(item)
    return {"n": f.n, "terms": terms}


def exppoly_from_dict(data: dict) -> ExpPoly:
    from .exppoly import ExpPoly, Term, canonicalize

    _require(
        isinstance(data, dict) and "n" in data and "terms" in data,
        "exppoly needs 'n' and 'terms'",
    )
    n = _int(data["n"], "n")
    terms = []
    for t in data["terms"]:
        coeff = _num(t["coeff"], "term coefficient")
        power = _int(t["power"], "term power")
        rate = tuple(_int(r, "term rate") for r in t["rate"])
        _require(len(rate) == n, f"term rate {list(rate)} does not have length n = {n}")
        terms.append(Term(coeff, power, rate, _bool(t.get("resonant", False), "term resonant")))
    return canonicalize(ExpPoly(n, tuple(terms)))


def flow_to_dict(F: MomentFlow) -> dict:
    from .core import enumerate_multiindices

    return {
        "n": F.n,
        "degree": F.degree,
        "params": {"kind": F.params.kind, "nu": F.params.nu, "a": list(F.params.a)},
        "entries": [
            {"alpha": list(alpha), "exppoly": exppoly_to_dict(F.entries[alpha])}
            for alpha in enumerate_multiindices(F.n, F.degree)
        ],
    }


def flow_from_dict(data: dict) -> MomentFlow:
    from .flows import FlowParams, MomentFlow

    for key in ("n", "degree", "params", "entries"):
        _require(key in data, f"flow is missing key {key!r}")
    p = data["params"]
    for key in ("kind", "nu", "a"):
        _require(isinstance(p, dict) and key in p, f"flow params are missing key {key!r}")
    a = tuple(_num(x, "drift") for x in p["a"])
    params = FlowParams(str(p["kind"]), _num(p["nu"], "nu"), a)
    n = _int(data["n"], "n")
    entries = {}
    for e in data["entries"]:
        alpha = tuple(_int(x, "index") for x in e["alpha"])
        _require(alpha not in entries, f"duplicate index {alpha}")
        f = exppoly_from_dict(e["exppoly"])
        _require(f.n == n, f"entry {alpha} has n = {f.n}, the flow n = {n}")
        entries[alpha] = f
    return MomentFlow(n, _int(data["degree"], "degree"), params, entries)


def _finite_or_none(x: float) -> float | None:
    return None if math.isinf(x) else x


def _num_or_inf(value, what: str) -> float:
    """A finite JSON number, or ``null`` for an infinite distance or bound."""
    return math.inf if value is None else _num(value, what)


def bound_only_to_dict(n: int, nu: float, upper_bound: float) -> dict:
    """Report for ``n >= 2``, where only the a-priori bound is available."""
    return {
        "bound_only": True,
        "n": n,
        "nu": nu,
        "upper_bound": _finite_or_none(upper_bound),
        "unbounded": math.isinf(upper_bound),
    }


def boundary_report_to_dict(r: BoundaryReport) -> dict:
    out = {
        "distance": _finite_or_none(r.distance),
        "interval_closed": r.interval_closed,
        "upper_bound": _finite_or_none(r.upper_bound),
        "unbounded": math.isinf(r.distance),
        "boundary_sequence": sequence_to_dict(r.boundary_sequence),
        "kernel_poly": None if r.kernel_poly is None else [float(c) for c in r.kernel_poly],
    }
    if r.truncated_odd:
        out["truncated_odd"] = True
    return out


def boundary_report_from_dict(data: dict) -> BoundaryReport:
    from .boundary import BoundaryReport

    for key in ("distance", "interval_closed", "upper_bound", "boundary_sequence"):
        _require(key in data, f"boundary report is missing key {key!r}")
    kp = data.get("kernel_poly")
    return BoundaryReport(
        distance=_num_or_inf(data["distance"], "distance"),
        interval_closed=_bool(data["interval_closed"], "interval_closed"),
        boundary_sequence=sequence_from_dict(data["boundary_sequence"]),
        kernel_poly=None if kp is None else tuple(_num(c, "kernel_poly entry") for c in kp),
        upper_bound=_num_or_inf(data["upper_bound"], "upper_bound"),
        truncated_odd=_bool(data.get("truncated_odd", False), "truncated_odd"),
    )


def recovery_result_to_dict(r: RecoveryResult) -> dict:
    out = {
        "delta": r.delta,
        "residual": r.residual,
        "mixture": gaussian_mixture_to_dict(r.mixture),
        "atoms": [{"point": [x], "weight": w} for x, w in r.atoms],
    }
    if r.degenerate_kernel:
        out["degenerate_kernel"] = True
    return out
