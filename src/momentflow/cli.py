"""Batch command-line interface with JSON file I/O and CSV trajectory export.

Exit codes: 0 success, 1 usage error, 2 input parse/schema error, 3 numeric
or library error.  Failures emit one machine-readable JSON line on stderr,
and so does each warning.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings

# hankel, boundary and recovery load only for distance and recover, which
# need them; no command imports numpy
from . import flows, jsonio
from .core import (
    DEFAULT_DISTANCE_TOL,
    AtomicMeasure,
    MomentSequence,
    oracle_moments_atomic,
    oracle_moments_gaussian_mixture,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def _checked_float(text: str, positive: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (positive and not value > 0.0):
        bound = " > 0" if positive else ""
        raise argparse.ArgumentTypeError(f"expected a finite number{bound}, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    return _checked_float(text, positive=False)


def _positive_float(text: str) -> float:
    return _checked_float(text, positive=True)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _glue_drift_values(argv: list[str]) -> list[str]:
    """Rewrite ``--a -0.5,0.3`` as ``--a=-0.5,0.3``.

    argparse reads a value that starts with ``-`` and is not a plain number
    as an option, so a drift vector with a negative first entry needs the
    ``=`` form.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--a" and re.match(r"-\.?\d", tok):
            out[-1] = f"--a={tok}"
        else:
            out.append(tok)
    return out


def _parse_drift(text: str | None, n: int) -> tuple[float, ...]:
    if text is None:
        return (0.0,) * n
    try:
        a = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse drift vector {text!r}: {exc}") from None
    if len(a) != n:
        raise UsageError(f"drift vector has {len(a)} entries, sequence has n = {n}")
    if not all(map(math.isfinite, a)):
        raise UsageError(f"drift vector {text!r} has a non-finite entry")
    return a


def _load_sequence(path: str) -> MomentSequence:
    try:
        return jsonio.sequence_from_dict(jsonio.load_json(path))
    except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _build_flow(args, s: MomentSequence) -> flows.MomentFlow:
    a = _parse_drift(args.a, s.n)
    if args.equation == "heat":
        if any(x != 0.0 for x in a):
            raise UsageError("heat flow requires a zero drift vector")
        return flows.heat_flow(s, 1.0 if args.nu is None else args.nu)
    if args.equation == "transport":
        if args.nu not in (None, 0.0):
            raise UsageError("transport flow requires nu = 0")
        return flows.transport_flow(s, a)
    return flows.combined_flow(s, 1.0 if args.nu is None else args.nu, a)


def _cmd_evolve(args) -> None:
    s = _load_sequence(args.inp)
    F = _build_flow(args, s)
    out = flows.evaluate_flow(F, args.t)
    if not all(map(math.isfinite, out.values.values())):
        raise ValueError(f"evolved moments at t = {args.t!r} are not finite")
    jsonio.dump_json(args.out, jsonio.sequence_to_dict(out))
    if args.flow_out:
        jsonio.dump_json(args.flow_out, jsonio.flow_to_dict(F))


def _cmd_distance(args) -> None:
    from . import boundary

    s = _load_sequence(args.inp)
    if s.n == 1:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = boundary.heat_distance_1d(s, args.nu, tol=args.tol)
        for w in caught:
            odd = issubclass(w.category, boundary.OddDegreeWarning)
            _emit("warning", "odd_degree" if odd else "numeric", w.message)
        jsonio.dump_json(args.out, jsonio.boundary_report_to_dict(report))
    else:
        ub = boundary.distance_upper_bound(s, args.nu)
        jsonio.dump_json(args.out, jsonio.bound_only_to_dict(s.n, args.nu, ub))


def _cmd_recover(args) -> None:
    from . import recovery

    s = _load_sequence(args.inp)
    result = recovery.recover_gaussian_mixture(s, nu=args.nu, tol=args.tol)
    jsonio.dump_json(args.out, jsonio.recovery_result_to_dict(result))


def _cmd_oracle(args) -> None:
    try:
        measure = jsonio.measure_from_dict(jsonio.load_json(args.measure))
    except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        raise ParseError(f"{args.measure}: {exc}") from exc
    if isinstance(measure, AtomicMeasure):
        s = oracle_moments_atomic(measure, args.degree)
    else:
        s = oracle_moments_gaussian_mixture(measure, args.degree)
    jsonio.dump_json(args.out, jsonio.sequence_to_dict(s))


def _cmd_trajectory(args) -> None:
    s = _load_sequence(args.inp)
    F = _build_flow(args, s)
    ts = [
        args.t0 if args.steps == 0 else args.t0 + (args.t1 - args.t0) * i / args.steps
        for i in range(args.steps + 1)
    ]
    # the cells are repr floats and plain names, which csv.writer would write
    # unquoted, so joining them gives its bytes, "\r\n" terminators included
    lines = [",".join(["t"] + ["alpha_" + "_".join(map(str, a)) for a in s.indices()])]
    for t in ts:
        cells = [t, *flows.evaluate_flow(F, t).values.values()]
        if not all(map(math.isfinite, cells)):
            raise ValueError(f"trajectory row at t = {t!r} is not finite")
        lines.append(",".join(map(repr, cells)))
    with open(args.out, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _add_flow_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--equation", required=True, choices=["heat", "transport", "combined"])
    p.add_argument("--nu", type=_finite_float, default=None, help="diffusion coefficient")
    p.add_argument("--a", default=None, help="comma-separated drift vector")


def build_parser() -> _Parser:
    parser = _Parser(prog="momentflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="evaluate a moment flow at one time")
    _add_flow_args(p)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--flow-out", default=None, help="also write the full flow")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("distance", help="heat distance to the cone boundary")
    p.add_argument("--nu", type=_positive_float, default=1.0)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_DISTANCE_TOL)
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("recover", help="recover a Gaussian-mixture representation")
    p.add_argument("--nu", type=_positive_float, default=1.0)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_DISTANCE_TOL)
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("oracle", help="moments of a measure given as JSON")
    p.add_argument("--measure", required=True)
    p.add_argument("--degree", type=_nonnegative_int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("trajectory", help="CSV sampling of a flow on a time grid")
    _add_flow_args(p)
    p.add_argument("--t0", type=_finite_float, required=True)
    p.add_argument("--t1", type=_finite_float, default=None)
    p.add_argument("--steps", type=_nonnegative_int, required=True)
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trajectory)
    return parser


def _emit(level: str, kind: str, message: object) -> None:
    sys.stderr.write(json.dumps({level: kind, "message": str(message)}) + "\n")


def _fail(kind: str, exc: Exception, code: int) -> int:
    _emit("error", kind, exc)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _glue_drift_values(sys.argv[1:] if argv is None else argv)
        )
        if getattr(args, "command", None) == "trajectory" and args.t1 is None:
            args.t1 = args.t0
    except UsageError as exc:
        return _fail("usage", exc, EXIT_USAGE)
    try:
        args.func(args)
    except UsageError as exc:
        return _fail("usage", exc, EXIT_USAGE)
    except ParseError as exc:
        return _fail("parse", exc, EXIT_PARSE)
    except Exception as exc:  # library/numeric failures
        return _fail("numeric", exc, EXIT_NUMERIC)
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
