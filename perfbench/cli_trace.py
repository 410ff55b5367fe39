"""Traced stand-in for ``python -m momentflow.cli``.

Usage: ``python cli_trace.py <spans file> <cli arguments...>`` with ``src`` on
PYTHONPATH.  Times the import of ``momentflow.cli``, installs the wrappers of
spans.py, runs ``momentflow.cli.main`` on the arguments, writes the spans and
exits with main's return code, as ``momentflow.cli.entry`` does.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = perf_counter_ns()
    import momentflow.cli as cli

    end = perf_counter_ns()
    tracer.spans.append(["cli.import", start, end, -1, -1, end - start, None])
    tracer.install()
    code = tracer.span("cli.main", cli.main)(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
