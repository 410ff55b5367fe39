"""Batch command-line interface with JSON file I/O and CSV trajectory export.

The commands and their flags are one table (:func:`build_parser`) read by a
small parser (:class:`Parser`).  It takes ``--flag value`` and
``--flag=value``, a unique prefix of a flag name (``--deg 6``), a repeated
flag (the last value wins) and ``-h``/``--help``, which prints the help and
exits 0.  A value is the next argument unless that argument is a flag, so
every negative number (``--t -1e-3``, ``--a -0.5,0.3``) is a value.  No
command imports argparse, typing, pathlib or numpy.

Exit codes: 0 success, 1 usage error, 2 input parse/schema error, 3 numeric
or library error.  Failures emit one machine-readable JSON line on stderr,
and so does each warning.
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings
from types import SimpleNamespace

# hankel, boundary and recovery load only for distance and recover, which
# need them; no command imports numpy
from . import flows, jsonio
from .core import (
    DEFAULT_DISTANCE_TOL,
    AtomicMeasure,
    MomentSequence,
    index_count,
    oracle_moments_atomic,
    oracle_moments_gaussian_mixture,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
# The most (steps + 1) x moments cells one trajectory may write
TRAJECTORY_MAX_CELLS = 10**6
# The most moments, C(n + degree, n), one oracle command may compute
ORACLE_MAX_MOMENTS = 10**5
_EXIT_CODES = ("exit codes: 0 success, 1 usage error, 2 input parse or schema error,\n"
               "3 numeric or library error")


class UsageError(Exception):
    pass


class ParseError(Exception):
    pass


def _checked_float(text: str, positive: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (positive and not value > 0.0):
        bound = " > 0" if positive else ""
        raise ValueError(f"expected a finite number{bound}, got {text!r}")
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
        raise ValueError(f"expected an integer >= 0, got {text!r}")
    return value


_EQUATIONS = ("heat", "transport", "combined")


def _equation(text: str) -> str:
    if text not in _EQUATIONS:
        choices = ", ".join(map(repr, _EQUATIONS))
        raise ValueError(f"invalid choice: {text!r} (choose from {choices})")
    return text


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


def _load(path: str, from_dict=jsonio.sequence_from_dict):
    """``from_dict`` of the JSON document at ``path``, a moment sequence by
    default; a read, JSON or schema error is a ``ParseError`` naming the path."""
    try:
        return from_dict(jsonio.load_json(path))
    except (OSError, ValueError, TypeError, KeyError, RecursionError) as exc:
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
    s = _load(args.inp)
    F = _build_flow(args, s)
    out = flows.evaluate_flow(F, args.t)
    jsonio.dump_json(args.out, jsonio.sequence_to_dict(out))
    if args.flow_out:
        jsonio.dump_json(args.flow_out, jsonio.flow_to_dict(F))


def _cmd_distance(args) -> None:
    from . import boundary

    s = _load(args.inp)
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

    s = _load(args.inp)
    result = recovery.recover_gaussian_mixture(s, nu=args.nu, tol=args.tol)
    jsonio.dump_json(args.out, jsonio.recovery_result_to_dict(result))


def _cmd_oracle(args) -> None:
    measure = _load(args.measure, jsonio.measure_from_dict)
    # counted before any index is enumerated
    count = index_count(measure.n, args.degree)
    if count is None or count > ORACLE_MAX_MOMENTS:
        many = "more than 2**64" if count is None else count
        raise UsageError(f"degree {args.degree} in n = {measure.n} gives {many} moments, "
                         f"over the oracle cap of {ORACLE_MAX_MOMENTS}")
    if isinstance(measure, AtomicMeasure):
        s = oracle_moments_atomic(measure, args.degree)
    else:
        s = oracle_moments_gaussian_mixture(measure, args.degree)
    jsonio.dump_json(args.out, jsonio.sequence_to_dict(s))


def _cmd_trajectory(args) -> None:
    s = _load(args.inp)
    # every cell is held in memory before the first row is written
    if (args.steps + 1) * len(s.values) > TRAJECTORY_MAX_CELLS:
        raise UsageError(f"{args.steps + 1} rows x {len(s.values)} moments exceed the "
                         f"trajectory cap of {TRAJECTORY_MAX_CELLS} cells")
    F = _build_flow(args, s)
    t0, t1 = args.t0, args.t0 if args.t1 is None else args.t1
    ts = [t0 if args.steps == 0 else t0 + (t1 - t0) * i / args.steps
          for i in range(args.steps + 1)]
    if not all(map(math.isfinite, ts)):
        raise ValueError(f"time grid from t0 = {t0!r} to t1 = {t1!r} in "
                         f"{args.steps} steps is not finite")
    cols = flows._evaluate_grid(F, ts)
    # the cells are repr floats and plain names, which csv.writer would write
    # unquoted, so joining them gives its bytes, "\r\n" terminators included
    lines = [",".join(["t"] + ["alpha_" + "_".join(map(str, a)) for a in s.indices()])]
    lines += [",".join(map(repr, row)) for row in zip(ts, *cols)]
    with open(args.out, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


REQUIRED = object()  # the default of a flag that must be given
_HELP = ("-h", "--help")


def _classify(tok: str, names) -> tuple[str, str | None] | None:
    """``(flag, value given with =, or None)`` if ``tok`` is a flag, else None.

    ``flag`` is the name in ``names`` that the token spells out or, after
    ``--``, abbreviates to a unique prefix; an unknown flag keeps its own
    name.  ``-`` alone, a token that starts like a negative number (``-`` and
    a digit, or ``-.`` and a digit) and a token with a space that names no
    flag are not flags: they are values.
    """
    if not tok.startswith("-") or tok == "-":
        return None
    if tok[1:2].isdecimal() or (tok[1:2] == "." and tok[2:3].isdecimal()):
        return None
    name, eq, value = tok.partition("=")
    if name not in names and name.startswith("--") and len(name) > 2:
        hits = [n for n in names if n.startswith(name)]
        if len(hits) > 1:
            raise UsageError(f"ambiguous option: {name} could match {', '.join(hits)}")
        name = hits[0] if hits else name
    if name not in names and " " in tok:
        return None
    return name, value if eq else None


class Parser:
    """The command table of ``momentflow`` and the parser of its arguments.

    ``commands`` maps each command name to ``(handler, help line, flags)``,
    and each flag is ``(name, dest, converter, default or REQUIRED, help)``.
    A converter takes the text and raises ``ValueError`` on a bad value.
    """

    def __init__(self, commands: dict):
        self.commands = commands

    def parse_args(self, argv: list[str]) -> SimpleNamespace:
        """The namespace of ``command``, ``func`` (its handler) and each dest.

        Raises :class:`UsageError`; ``-h``/``--help`` prints the help to
        stdout and raises ``SystemExit(0)``.
        """
        before = []  # the flags before the command; only -h/--help is one
        for tok in argv:
            hit = _classify(tok, _HELP)
            if hit is None:
                break
            before.append(hit)
        if ("-h", None) in before or ("--help", None) in before:
            self._help(None)
        at = len(before)
        if at == len(argv):
            raise UsageError("the following arguments are required: command")
        name = argv[at]
        if name not in self.commands:
            choices = ", ".join(map(repr, self.commands))
            raise UsageError(f"argument command: invalid choice: {name!r} (choose from {choices})")
        values = self._flags(name, argv[at + 1:])
        if before:
            raise UsageError(f"unrecognized arguments: {' '.join(argv[:at])}")
        return SimpleNamespace(command=name, func=self.commands[name][0], **values)

    def _flags(self, command: str, argv: list[str]) -> dict:
        """The dest -> value map of one command, defaults filled in."""
        flags = self.commands[command][2]
        table = {flag: (dest, convert) for flag, dest, convert, _, _ in flags}
        names = (*table, *_HELP)
        split = [_classify(tok, names) for tok in argv]
        values, stray = {}, []
        i = 0
        while i < len(argv):
            tok, hit = argv[i], split[i]
            i += 1
            if hit is None or hit[0] not in names:
                stray.append(tok)
                continue
            flag, value = hit
            if flag in _HELP:
                if value is not None:
                    raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
                self._help(command)
            if value is None:
                if i == len(argv) or split[i] is not None:
                    raise UsageError(f"argument {flag}: expected one argument")
                value = argv[i]
                i += 1
            dest, convert = table[flag]
            try:
                values[dest] = convert(value)
            except ValueError as exc:
                raise UsageError(f"argument {flag}: {exc}") from None
        if stray:
            raise UsageError(f"unrecognized arguments: {' '.join(stray)}")
        missing = [flag for flag, dest, _, default, _ in flags
                   if default is REQUIRED and dest not in values]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
        return {dest: values.get(dest, default) for _, dest, _, default, _ in flags}

    def _help(self, command: str | None):
        """Print the help of one command, or of the program, and exit 0."""
        if command is None:
            lines = ["usage: momentflow <command> --flag value ...", "", "commands:"]
            lines += [f"  {name:<12}{line}" for name, (_, line, _) in self.commands.items()]
            lines += ["", "`momentflow <command> -h` lists the flags of a command."]
        else:
            _, line, flags = self.commands[command]
            need = [f"{flag} {flag[2:].upper()}" for flag, _, _, d, _ in flags if d is REQUIRED]
            lines = [f"usage: momentflow {command} {' '.join(need)} [flags]", "", line, "",
                     "flags:"]
            for flag, _, _, default, text in flags:
                mark = (" (required)" if default is REQUIRED
                        else "" if default is None else f" (default {default!r})")
                lines.append(f"  {flag:<12}{text}{mark}")
            lines += [
                "",
                "A flag may be shortened to a unique prefix and written --flag=value; the",
                "last of a repeated flag wins.  A value is the next argument unless that is",
                "a flag, so --t -1e-3 and --a -0.5,0.3 give negative values.",
            ]
        sys.stdout.write("\n".join([*lines, "", _EXIT_CODES, ""]))
        raise SystemExit(EXIT_OK)


def build_parser() -> Parser:
    flow = (
        ("--equation", "equation", _equation, REQUIRED, "heat, transport or combined"),
        ("--nu", "nu", _finite_float, None, "diffusion coefficient (heat, combined: 1)"),
        ("--a", "a", str, None, "comma-separated drift vector (default all 0)"),
    )
    source = ("--in", "inp", str, REQUIRED, "moment sequence file (JSON)")
    out = ("--out", "out", str, REQUIRED, "output file")
    search = (
        ("--nu", "nu", _positive_float, 1.0, "diffusion coefficient"),
        ("--tol", "tol", _positive_float, DEFAULT_DISTANCE_TOL,
         "bracket width at which the distance search stops"),
        source,
        out,
    )
    return Parser({
        "evolve": (_cmd_evolve, "evaluate a moment flow at one time", (
            *flow,
            ("--t", "t", _finite_float, REQUIRED, "time"),
            source,
            out,
            ("--flow-out", "flow_out", str, None, "also write the flow to this file (JSON)"),
        )),
        "distance": (_cmd_distance, "heat distance to the cone boundary", search),
        "recover": (_cmd_recover, "recover a Gaussian-mixture representation", search),
        "oracle": (_cmd_oracle, "moments of a measure given as JSON", (
            ("--measure", "measure", str, REQUIRED, "measure file (JSON)"),
            ("--degree", "degree", _nonnegative_int, REQUIRED,
             f"top degree; C(n + degree, n) moments may be at most {ORACLE_MAX_MOMENTS}"),
            out,
        )),
        "trajectory": (_cmd_trajectory, "CSV sampling of a flow on a time grid", (
            *flow,
            ("--t0", "t0", _finite_float, REQUIRED, "first time"),
            ("--t1", "t1", _finite_float, None, "last time (default --t0)"),
            ("--steps", "steps", _nonnegative_int, REQUIRED,
             f"number of time steps; (steps + 1) x moments may be at most {TRAJECTORY_MAX_CELLS}"),
            source,
            out,
        )),
    })


def _emit(level: str, kind: str, message: object) -> None:
    sys.stderr.write(json.dumps({level: kind, "message": str(message)}) + "\n")


def _fail(kind: str, exc: Exception, code: int) -> int:
    _emit("error", kind, exc)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else argv)
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
    """Run :func:`main` as a process and exit with its code.

    Start-up and import leave ~12,000 tracked objects that live until exit;
    frozen, they are skipped by the full collections of interpreter shutdown
    (~7 ms).  The CLI registers no ``atexit`` handler and closes every file it
    writes, so once stdout and stderr are flushed ``os._exit`` skips the rest
    of shutdown (~2.5 ms); a failed flush exits normally instead.  :func:`main`
    does neither, so in-process callers are not frozen and not ended.
    """
    import gc  # here, so that importing the CLI module does not load it

    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    entry()
