"""Pass-through wrappers that time calls into momentflow's modules.

The wrappers are installed on the module attribute each caller looks up (for
example ``momentflow.recovery.heat_distance_1d``, which ``recovery`` calls by
its own global name), so no source file changes.  A wrapper returns exactly
what the wrapped function returns and re-raises what it raises.

Three kinds of site:

* ``SPAN``: one record per call, ``[name, start_ns, end_ns, parent, op,
  self_ns, note]``.  ``parent`` is the index of the enclosing span (-1 for
  none) and ``self_ns`` is the duration minus the time of wrapped calls
  beneath it.
* ``TIMED``: hot leaf calls (thousands per op); only the call count and total
  time are kept, but the time is still charged to the enclosing span.
* ``COUNT``: hotter leaf calls still; only counted.  Their time stays in the
  enclosing span's self time.

Spans are kept in memory and written out once, by ``Tracer.dump``.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter_ns

SPAN, TIMED, COUNT = "span", "timed", "count"


def _terms(args, kwargs, flow):
    return sum(len(f.terms) for f in flow.entries.values())


def _distance(args, kwargs, report):
    return report.distance


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, attribute looked up by callers, span name, kind, note)
SITES = (
    ("momentflow.recovery", "recover_gaussian_mixture", "recovery.recover", SPAN, None),
    ("momentflow.recovery", "heat_distance_1d", "boundary.heat_distance_1d", SPAN, _distance),
    ("momentflow.boundary", "heat_distance_1d", "boundary.heat_distance_1d", SPAN, _distance),
    ("momentflow.boundary", "heat_flow", "flows.build", SPAN, _terms),
    ("momentflow.flows", "heat_flow", "flows.build", SPAN, _terms),
    ("momentflow.flows", "transport_flow", "flows.build", SPAN, _terms),
    ("momentflow.flows", "combined_flow", "flows.build", SPAN, _terms),
    ("momentflow.boundary", "evaluate_flow", "flows.evaluate_flow", SPAN, None),
    ("momentflow.flows", "evaluate_flow", "flows.evaluate_flow", SPAN, None),
    ("momentflow.boundary", "build_hankel", "hankel.build_hankel", SPAN, None),
    ("momentflow.recovery", "build_hankel", "hankel.build_hankel", SPAN, None),
    ("momentflow.boundary", "classify_psd", "hankel.classify_psd", SPAN, None),
    ("momentflow.recovery", "classify_psd", "hankel.classify_psd", SPAN, None),
    ("momentflow.recovery", "atoms_from_kernel", "recovery.atoms_from_kernel", SPAN, None),
    ("momentflow.recovery", "weights_from_atoms", "recovery.weights_from_atoms", SPAN, None),
    ("momentflow.recovery", "oracle_moments_gaussian_mixture", "recovery.residual", SPAN, None),
    ("momentflow.exppoly", "integrate_with_rate", "exppoly.integrate_with_rate", SPAN, None),
    ("momentflow.exppoly", "evaluate", "exppoly.evaluate", TIMED, None),
    ("momentflow.core", "enumerate_multiindices", "core.enumerate_multiindices", COUNT, None),
    ("momentflow.core", "gaussian_moment_1d", "core.gaussian_moment_1d", COUNT, None),
    ("momentflow.recovery", "gaussian_moment_1d", "core.gaussian_moment_1d", COUNT, None),
    ("momentflow.jsonio", "load_json", "jsonio.load_json", SPAN, None),
    ("momentflow.jsonio", "dump_json", "jsonio.dump_json", SPAN, _bytes_written),
    ("momentflow.cli", "build_parser", "cli.parse", SPAN, None),
    ("momentflow.cli", "_cmd_evolve", "cli.command", SPAN, None),
    ("momentflow.cli", "_cmd_distance", "cli.command", SPAN, None),
    ("momentflow.cli", "_cmd_recover", "cli.command", SPAN, None),
    ("momentflow.cli", "_cmd_oracle", "cli.command", SPAN, None),
    ("momentflow.cli", "_cmd_trajectory", "cli.command", SPAN, None),
)


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans: list[list] = []
        self.timed: dict[str, list[int]] = {}
        self.counts: dict[str, list[int]] = {}
        self._stack: list[list[int]] = []  # [span index, ns of wrapped children]

    def span(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1][0] if stack else -1, self.op, 0, None]
            spans.append(record)
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                record[1], record[2], record[5] = start, end, end - start - frame[1]
            if note is not None:
                record[6] = note(args, kwargs, result)
            return result

        return wrapper

    def timed_call(self, name, fn):
        acc = self.timed.setdefault(name, [0, 0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                acc[0] += 1
                acc[1] += dur
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def counted(self, name, fn):
        acc = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            acc[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every site whose module is already imported; imports nothing."""
        for module, attr, name, kind, note in SITES:
            mod = sys.modules.get(module)
            if mod is None:
                continue
            fn = getattr(mod, attr)
            if kind == SPAN:
                wrapped = self.span(name, fn, note)
            elif kind == TIMED:
                wrapped = self.timed_call(name, fn)
            else:
                wrapped = self.counted(name, fn)
            setattr(mod, attr, wrapped)
        cli = sys.modules.get("momentflow.cli")
        if cli is not None:
            build = cli.build_parser

            def build_parser():
                parser = build()
                parser.parse_args = self.span("cli.parse", parser.parse_args)
                return parser

            cli.build_parser = build_parser

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "timed": self.timed,
                       "counts": {k: v[0] for k, v in self.counts.items()}}, fh)
