"""Op server for the library workloads; the only benchmark file that runs ops.

Usage (started by run.py, with ``src`` on PYTHONPATH):

    python child.py setup <workload>     time a fresh import plus warm-up
    python child.py serve                run ops on request

``serve`` reads one header line (``{"workload", "trace", "spans"}``) and one
line of inputs (``[op input, ...]``), imports momentflow, warms up, and
answers ``ready``.  Then, per request line ``<op index>``, it runs that op and
writes ``<index>\\t<ns>\\t<ok|err>\\t<json payload>``; ``q`` ends the session
(writing the spans file first when tracing).  Only the op call itself is
inside the timed region.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

SRC = Path(__file__).resolve().parent.parent / "src"


def import_library(module: str):
    mod = __import__(module)
    origin = Path(sys.modules[module].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"{module} was imported from {origin}, not from {SRC}")
    return mod


def _recover_op(mf, inp):
    s = mf.MomentSequence.of_1d(inp["s"])
    recovery = mf.recovery

    def op():
        return recovery.recover_gaussian_mixture(s, nu=1.0)

    def encode(r):
        return {"delta": r.delta, "atoms": [[x, w] for x, w in r.atoms]}

    return op, encode


def _flow_op(mf, inp):
    s = mf.MomentSequence(inp["n"], inp["d"], {tuple(a): v for a, v in inp["s"]})
    nu, a, times = inp["nu"], tuple(inp["a"]), inp["times"]
    flows = mf.flows

    def op():
        F = flows.combined_flow(s, nu, a)
        return [flows.evaluate_flow(F, t) for t in times]

    def encode(outs):
        idx = outs[0].indices()
        return {"alphas": [list(al) for al in idx],
                "values": [[seq[al] for al in idx] for seq in outs]}

    return op, encode


OPS = {"recover-1d": _recover_op, "flow-nd": _flow_op}
# a fixed instance per workload, run before timing so lazy set-up is paid
WARMUP = {
    "recover-1d": {"s": [1.0, 0.0, 3.0, 0.0, 25.0]},
    "flow-nd": {"n": 2, "d": 4, "nu": 0.5, "a": [0.3, 0.0], "times": [1.0],
                "s": [[[i, j], 1.0 / (1 + i + j)] for i in range(5) for j in range(5 - i)]},
}


def setup(workload: str) -> None:
    start = perf_counter()
    if workload == "cli-batch":
        import_library("momentflow.cli")
    else:
        mf = import_library("momentflow")
        op, _ = OPS[workload](mf, WARMUP[workload])
        op()
    print(json.dumps({"setup_s": perf_counter() - start}))


def serve() -> None:
    header = json.loads(sys.stdin.readline())
    inputs = json.loads(sys.stdin.readline())
    workload = header["workload"]
    mf = import_library("momentflow")
    ops = [OPS[workload](mf, inp) for inp in inputs]
    op, _ = OPS[workload](mf, WARMUP[workload])
    op()
    tracer = None
    if header["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    for line in sys.stdin:
        line = line.strip()
        if line == "q":
            break
        i = int(line)
        op, encode = ops[i]
        if tracer is not None:
            tracer.op = i
        start = perf_counter_ns()
        try:
            result = op()
        except Exception as exc:  # the op failed; report it and keep serving
            ns = perf_counter_ns() - start
            out.write(f"{i}\t{ns}\terr\t{json.dumps(f'{type(exc).__name__}: {exc}')}\n")
        else:
            ns = perf_counter_ns() - start
            out.write(f"{i}\t{ns}\tok\t{json.dumps(encode(result))}\n")
        out.flush()
    if tracer is not None:
        tracer.dump(header["spans"])


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        serve()
