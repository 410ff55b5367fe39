"""JSON schemas shared by the library and the CLI.

Serialization is deterministic: keys are sorted, floats use shortest
round-trip decimal formatting, and list orders are fixed (moments and flow
entries in graded index order).  Identical inputs therefore produce
byte-identical files.  Output is strict RFC 8259 JSON: NaN and infinities
are never written, and an infinite distance or bound is encoded as ``null``
next to ``"unbounded": true``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

from .core import AtomicMeasure, GaussianMixture, MomentSequence
from .exppoly import ExpPoly, Term, canonicalize
from .flows import FlowParams, MomentFlow

if TYPE_CHECKING:  # imported only where a report is built
    from .boundary import BoundaryReport
    from .recovery import RecoveryResult


def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def dump_json(path: str | Path, data) -> None:
    Path(path).write_text(dumps(data))


def load_json(path: str | Path):
    return json.loads(Path(path).read_text())


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _finite(value, what: str) -> float:
    x = float(value)
    _require(math.isfinite(x), f"{what} is not finite: {x}")
    return x


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
        alpha = tuple(int(x) for x in item["alpha"])
        _require(alpha not in values, f"duplicate index {alpha}")
        values[alpha] = item["value"]
    return MomentSequence(int(data["n"]), int(data["degree"]), values)


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
                tuple(_finite(x, "atom point") for x in a["point"]),
                _finite(a["weight"], "atom weight"),
            )
            for a in data["atoms"]
        )
        return AtomicMeasure(int(data["n"]), atoms)
    if kind == "gaussian_mixture":
        for key in ("n", "nu", "components"):
            _require(key in data, f"gaussian mixture needs key {key!r}")
        comps = tuple(
            (
                tuple(_finite(x, "component center") for x in c["center"]),
                _finite(c["weight"], "component weight"),
                _finite(c["time"], "component time"),
            )
            for c in data["components"]
        )
        return GaussianMixture(int(data["n"]), _finite(data["nu"], "nu"), comps)
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
    _require(
        isinstance(data, dict) and "n" in data and "terms" in data,
        "exppoly needs 'n' and 'terms'",
    )
    terms = tuple(
        Term(
            float(t["coeff"]),
            int(t["power"]),
            tuple(int(r) for r in t["rate"]),
            bool(t.get("resonant", False)),
        )
        for t in data["terms"]
    )
    return canonicalize(ExpPoly(int(data["n"]), terms))


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
    for key in ("n", "degree", "params", "entries"):
        _require(key in data, f"flow is missing key {key!r}")
    p = data["params"]
    params = FlowParams(str(p["kind"]), float(p["nu"]), tuple(float(x) for x in p["a"]))
    entries = {
        tuple(int(x) for x in e["alpha"]): exppoly_from_dict(e["exppoly"])
        for e in data["entries"]
    }
    return MomentFlow(int(data["n"]), int(data["degree"]), params, entries)


def _finite_or_none(x: float) -> float | None:
    return None if math.isinf(x) else x


def _inf_if_none(x) -> float:
    return math.inf if x is None else float(x)


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
        distance=_inf_if_none(data["distance"]),
        interval_closed=bool(data["interval_closed"]),
        boundary_sequence=sequence_from_dict(data["boundary_sequence"]),
        kernel_poly=None if kp is None else tuple(float(c) for c in kp),
        upper_bound=_inf_if_none(data["upper_bound"]),
        truncated_odd=bool(data.get("truncated_odd", False)),
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
