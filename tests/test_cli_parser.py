"""The CLI parser against an argparse oracle: same values, or both a usage error.

The oracle is the argparse parser the CLI used before its own table-driven
parser, with the glue that rewrote ``--a -0.5,0.3`` as ``--a=-0.5,0.3``.
Both run over the argument forms of the CLI tests and of the benchmark, and
over variants of each: abbreviated flags, the ``=`` form, repeated, missing
and unknown flags, a missing value, bad choices, bad numbers and ``-h``.
Every outcome must agree, with two exceptions, each listed case by case:

* a value that starts like a negative number but is not one argparse
  recognises (``-1e-3``, ``-5.json``): argparse reads it as a flag and
  fails, the new parser reads it as a value (``ACCEPTED_ONLY_BY_NEW``);
* ``--flag=--``: argparse stores an empty list, unconverted and unchecked,
  where the new parser passes ``--`` to the converter.
"""

import argparse
import contextlib
import io
import math
import re

import pytest

from momentflow.cli import UsageError, build_parser
from momentflow.core import DEFAULT_DISTANCE_TOL


# ------------------------------------------------------------ the oracle
def _checked_float(text, positive):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (positive and not value > 0.0):
        bound = " > 0" if positive else ""
        raise argparse.ArgumentTypeError(f"expected a finite number{bound}, got {text!r}")
    return value


def _finite_float(text):
    return _checked_float(text, positive=False)


def _positive_float(text):
    return _checked_float(text, positive=True)


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _glue_drift_values(argv):
    out = []
    for tok in argv:
        if out and out[-1] == "--a" and re.match(r"-\.?\d", tok):
            out[-1] = f"--a={tok}"
        else:
            out.append(tok)
    return out


def _oracle_parser():
    parser = _OracleParser(prog="momentflow")
    sub = parser.add_subparsers(dest="command", required=True)

    def flow_args(p):
        p.add_argument("--equation", required=True, choices=["heat", "transport", "combined"])
        p.add_argument("--nu", type=_finite_float, default=None)
        p.add_argument("--a", default=None)

    p = sub.add_parser("evolve")
    flow_args(p)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--flow-out", default=None)
    for name in ("distance", "recover"):
        p = sub.add_parser(name)
        p.add_argument("--nu", type=_positive_float, default=1.0)
        p.add_argument("--tol", type=_positive_float, default=DEFAULT_DISTANCE_TOL)
        p.add_argument("--in", dest="inp", required=True)
        p.add_argument("--out", required=True)
    p = sub.add_parser("oracle")
    p.add_argument("--measure", required=True)
    p.add_argument("--degree", type=_nonnegative_int, required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("trajectory")
    flow_args(p)
    p.add_argument("--t0", type=_finite_float, required=True)
    p.add_argument("--t1", type=_finite_float, default=None)
    p.add_argument("--steps", type=_nonnegative_int, required=True)
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    return parser


def _outcome(parse, argv):
    """``("ok", dest -> value)``, ``("usage",)`` or ``("help",)``."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            ns = parse(list(argv))
        except UsageError:
            return ("usage",)
        except SystemExit as exc:
            assert exc.code == 0 and out.getvalue().startswith("usage: momentflow")
            return ("help",)
    values = dict(vars(ns))
    values.pop("func", None)
    return ("ok", values)


ORACLE = _oracle_parser()


def oracle(argv):
    return _outcome(lambda a: ORACLE.parse_args(_glue_drift_values(a)), argv)


def new(argv):
    return _outcome(lambda a: build_parser().parse_args(a), argv)


# ------------------------------------------------------------ the forms
IO = ["--in", "s.json", "--out", "o.json"]
FLOW_COMBINED = ["--equation", "combined", "--nu", "0.5", "--a", "-0.5"]
BASE = [
    # tests/test_cli.py
    ["evolve", "--equation", "heat", "--t", "1", *IO],
    ["evolve", "--equation", "transport", "--a", "1.0", "--t", "0.6931471805599453", *IO],
    ["evolve", "--equation", "combined", "--nu", "1", "--a", "1.0", "--t", "0.5", *IO,
     "--flow-out", "f.json"],
    ["evolve", "--equation", "heat", "--a", "1.0", "--t", "1", *IO],
    ["evolve", "--equation", "nope", "--t", "1", "--in", "x", "--out", "y"],
    ["evolve", "--equation", "heat", "--t", "inf", *IO],
    ["evolve", "--equation", "combined", "--nu", "nan", "--t", "1", *IO],
    ["evolve", "--equation", "transport", "--a", "nan", "--t", "1", *IO],
    ["evolve", "--equation", "heat", "--nu", "-1", "--t", "1", *IO],
    ["evolve", "--equation", "combined", "--nu", "0", "--a", "-0.5", "--t", "1", *IO],
    ["evolve", "--equation", "transport", "--a=-1,1", "--t", "1000", *IO],
    ["evolve", "--equation", "transport", "--a", "-0.5,0.3", "--t", "0.5", *IO],
    ["evolve", "--equation", "transport", "--a=-0.5,0.3", "--t", "0.5", *IO],
    ["evolve", *FLOW_COMBINED, "--t", "1", *IO, "--flow-out", "f.json"],
    ["distance", *IO],
    ["distance", "--tol", "0", *IO],
    ["distance", "--tol", "-1e-10", *IO],
    ["distance", "--nu", "-1", *IO],
    ["distance", "--nu", "1e300", *IO],
    ["recover", "--nu", "inf", *IO],
    ["recover", "--tol", "nan", *IO],
    ["oracle", "--measure", "m.json", "--degree", "4", "--out", "o.json"],
    ["oracle", "--measure", "m.json", "--degree", "-1", "--out", "o.json"],
    ["oracle", "--measure", "m.json", "--degree", "2.5", "--out", "o.json"],
    ["trajectory", "--equation", "heat", "--t0", "nan", "--steps", "2", *IO],
    ["trajectory", "--equation", "transport", "--a=-inf", "--t0", "0", "--steps", "2", *IO],
    ["trajectory", "--equation", "heat", "--t0", "0", "--steps", "-1", *IO],
    ["trajectory", "--equation", "combined", "--nu", "0.5", "--a", "-0.4,0.7", "--t0", "0",
     "--t1", "2", "--steps", "20", *IO],
    ["trajectory", "--equation", "heat", "--t0", "1", "--t1", "2", "--steps", "0", *IO],
    ["trajectory", *FLOW_COMBINED, "--t0", "0", "--t1", "1", "--steps", "4", *IO],
    # the cli-batch workload of the benchmark
    ["distance", "--in", "d.json", "--out", "out.json"],
    ["recover", "--in", "r.json", "--out", "out.json"],
    ["oracle", "--measure", "m.json", "--degree", "6", "--out", "out.json"],
    ["trajectory", "--equation", "combined", "--nu", "0.8123456789012345",
     "--a=-0.4567891234567891,0.9876543210987654", "--t0", "0", "--t1", "1",
     "--steps", "200", "--in", "t.json", "--out", "out.csv"],
]
NUMBER_FLAGS = {"--nu", "--t", "--t0", "--t1", "--tol", "--degree", "--steps"}
NAMES = {
    "evolve": ["--equation", "--nu", "--a", "--t", "--in", "--out", "--flow-out"],
    "distance": ["--nu", "--tol", "--in", "--out"],
    "recover": ["--nu", "--tol", "--in", "--out"],
    "oracle": ["--measure", "--degree", "--out"],
    "trajectory": ["--equation", "--nu", "--a", "--t0", "--t1", "--steps", "--in", "--out"],
}
ODD_TEXT = ["", "-", "-5", "-.5", "-x y", "--bogus=a b", "--in x", "a=b", "-x"]
BAD_NUMBERS = ["abc", "", "nan", "-inf", "1e400", "-", "0x10", "1_0", " 3 ", "+2", "٣",
               "-0", "1.5", "-2"]


def _pairs(argv):
    """The base form as ``[flag, value]`` pairs, ``=`` forms split."""
    pairs, rest = [], argv[1:]
    i = 0
    while i < len(rest):
        flag, eq, value = rest[i].partition("=")
        if eq:
            pairs.append([flag, value])
            i += 1
        else:
            pairs.append([rest[i], rest[i + 1]])
            i += 2
    return pairs


def _join(command, pairs):
    return [command, *(tok for pair in pairs for tok in pair)]


def variants(argv):
    command, pairs = argv[0], _pairs(argv)
    flat = _join(command, pairs)
    yield flat
    for k, (flag, value) in enumerate(pairs):
        others = pairs[:k] + pairs[k + 1:]
        # every prefix of the flag, unique or not
        for n in range(2, len(flag)):
            yield _join(command, [*pairs[:k], [flag[:n], value], *pairs[k + 1:]])
        # the = form, also with a prefix
        yield _join(command, pairs[:k]) + [f"{flag}={value}"] + _join(command, pairs[k + 1:])[1:]
        yield _join(command, pairs[:k]) + [f"{flag[:4]}={value}"] + _join(command, pairs[k + 1:])[1:]
        # repeated: the last value wins
        other = "heat" if flag == "--equation" else "2" if flag in NUMBER_FLAGS else "z.json"
        yield _join(command, [[flag, other], *pairs])
        yield _join(command, [*pairs, [flag, other]])
        # missing flag, missing value
        yield _join(command, others)
        yield _join(command, [*others, [flag]])
        yield _join(command, [*pairs[:k], [flag], *pairs[k + 1:]])
        # bad choice, bad number
        if flag == "--equation":
            for bad in ("nope", "HEAT", "hea", ""):
                yield _join(command, [*others, [flag, bad]])
        if flag in NUMBER_FLAGS:
            for bad in BAD_NUMBERS:
                yield _join(command, [*pairs[:k], [flag, bad], *pairs[k + 1:]])
                yield _join(command, [*pairs[:k], [f"{flag}={bad}"], *pairs[k + 1:]])
        # odd text values: empty, a dash, a negative number, spaces
        if flag not in NUMBER_FLAGS and flag != "--equation":
            for odd in ODD_TEXT:
                yield _join(command, [*pairs[:k], [flag, odd], *pairs[k + 1:]])
                yield _join(command, [*pairs[:k], [f"{flag}={odd}"], *pairs[k + 1:]])
        # a flag where the value belongs
        yield _join(command, [*pairs[:k], [flag, "--in"], *pairs[k + 1:]])
        yield _join(command, [*pairs[:k], [flag, "-h"], *pairs[k + 1:]])
        yield _join(command, [*pairs[:k], [flag, "--"], *pairs[k + 1:]])
    # unknown flags, stray arguments, bad commands
    for extra in (["--bogus"], ["--bogus", "1"], ["--bogus=1"], ["-x"], ["extra"], ["--"],
                  ["---in", "x"], ["-in", "x"], ["--in x"], ["--out=a b"], ["-x y"]):
        yield flat + extra
        yield [command, *extra, *flat[1:]]
        yield [*extra, *flat]
    yield flat[1:]
    yield [command[:3], *flat[1:]]
    yield [command.upper(), *flat[1:]]
    yield []
    # help, anywhere
    for help_flag in ("-h", "--help", "--he", "--h", "-h=1", "--help=1", "-hx"):
        for at in (0, 1, 2, len(flat)):
            yield [*flat[:at], help_flag, *flat[at:]]


def _all_variants():
    seen = set()
    for argv in BASE:
        for v in variants(argv):
            if tuple(v) not in seen:
                seen.add(tuple(v))
                yield v


# argparse reads each value below as an unknown flag; each is a value now
ACCEPTED_ONLY_BY_NEW = [
    (["evolve", "--equation", "heat", "--t", "-1e-3", *IO], {"t": -0.001}),
    (["evolve", "--equation", "combined", "--nu", "-5e-1", "--t", "1", *IO], {"nu": -0.5}),
    (["trajectory", "--equation", "heat", "--t0", "-5e-1", "--t1", "-1e-05",
      "--steps", "2", *IO], {"t0": -0.5, "t1": -1e-05}),
    (["trajectory", "--equation", "heat", "--t0", "-5.", "--steps", "2", *IO], {"t0": -5.0}),
    (["evolve", "--equation", "heat", "--t", "1", "--in", "-1.json", "--out", "-2,3"],
     {"inp": "-1.json", "out": "-2,3"}),
    (["oracle", "--measure", "-.5e", "--degree", "2", "--out", "o.json"],
     {"measure": "-.5e"}),
]


@pytest.mark.parametrize(
    "argv, dest, value",
    [
        (["evolve", "--equation", "heat", "--t", "1", "--in", "s.json", "--out=--"],
         "out", "--"),
        (["evolve", "--equation", "heat", "--t", "1", *IO, "--flow-out=--"], "flow_out", "--"),
        (["evolve", "--equation", "heat", "--t=--", *IO], "t", None),
        (["evolve", "--equation=--", "--t", "1", *IO], "equation", None),
        (["oracle", "--measure", "m.json", "--degree=--", "--out", "o.json"], "degree", None),
    ],
)
def test_double_dash_after_equals_is_the_value(argv, dest, value):
    # argparse 3.11 drops "--" from "--flag=--" and stores an empty list, which
    # skips the converter and the choice check; the parser passes "--" on
    kind, want = oracle(argv)
    assert kind == "ok" and want[dest] == []
    got = new(argv)
    assert got == ("usage",) if value is None else got[1][dest] == value


def test_new_parser_agrees_with_argparse():
    differ, kinds, count = [], set(), 0
    for argv in _all_variants():
        count += 1
        want, got = oracle(argv), new(argv)
        kinds.add(got[0])
        if want != got:
            differ.append((argv, want, got))
    assert count > 5000
    assert kinds == {"ok", "usage", "help"}
    assert differ == []


@pytest.mark.parametrize("argv, values", ACCEPTED_ONLY_BY_NEW)
def test_negative_number_like_values_are_values(argv, values):
    assert oracle(argv) == ("usage",)
    kind, got = new(argv)
    assert kind == "ok"
    assert {k: got[k] for k in values} == values


@pytest.mark.parametrize(
    "argv, text",
    [
        (["trajectory", "--t", "1"], "ambiguous option: --t could match --t0, --t1"),
        (["evolve", "--equation", "nope"], "argument --equation: invalid choice: 'nope'"),
        (["distance", "--tol", "x", *IO], "argument --tol: expected a finite number > 0"),
        (["oracle", "--degree"], "argument --degree: expected one argument"),
        (["evolve", "--in", "a"], "required: --equation, --t, --out"),
        (["distance", *IO, "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["dist", *IO], "argument command: invalid choice: 'dist'"),
        ([], "required: command"),
    ],
)
def test_usage_messages_name_the_flag(argv, text):
    with pytest.raises(UsageError, match=re.escape(text)):
        build_parser().parse_args(argv)


def test_help_lists_every_command_and_flag(capsys):
    parser = build_parser()
    for argv in (["-h"], ["--help"]):
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv)
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert all(f"  {name} " in out for name in NAMES)
    for command, names in NAMES.items():
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--in", "x", "-h"])
        out = capsys.readouterr().out
        assert out.startswith(f"usage: momentflow {command} ")
        assert all(f"  {name} " in out for name in names)
