"""momentflow benchmark: three seeded workloads, checked against independent oracles.

Run from the repository root:

    python3 perfbench/run.py --workload recover-1d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

A run generates its ops from the seed (workloads.py, which never imports
momentflow), measures set-up time in fresh interpreters, runs the ops one at a
time in a closed loop (one client) for ``--seconds`` in a child process that
imports ``src/momentflow``, runs them once more with pass-through tracing
wrappers (spans.py), and checks every output against its oracle outside the
timed region.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The
lines before it describe the run (environment, failures by kind and by k).

Every op runs at least twice, and its latency is its fastest execution in
the run; the percentiles are taken over ops.  A failed op (raised, timed out,
exited non-zero, wrote invalid JSON, or missed its oracle's tolerance) is
charged the per-op deadline plus that time, and 0 correct digits.
``correct`` is false when an op inside the envelope the acceptance tests
promise fails, when the traced and untraced outputs differ in any bit, or
when repeating an op changes its output.  Failures outside that envelope are
known defects: they are counted in ``failed`` and in the metrics, not in
``correct``.  See README.md for the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# flow-nd is not in BENCHMARK.json: on a shared 2-vCPU host its latency
# quantiles spread beyond the 0.25 bound across runs (see README.md)
WORKLOADS = ("recover-1d", "flow-nd", "cli-batch")
# per-op deadline in seconds; a failed op is charged this plus its own time
DEADLINE = {"recover-1d": 1.0, "flow-nd": 3.0, "cli-batch": 10.0}
TRACED_DEADLINE_FACTOR = 5.0
# An op's latency is its fastest execution in the run.  Host speed on a
# shared machine drifts by tens of percent within seconds; the fastest of
# several executions spread over the run filters that out far better than a
# median over executions does.
MIN_PASSES = 2
# set-up samples taken before the loop, after each untraced pass and at the end;
# spreading them over the run evens out slow drifts in the host's speed
SETUP_AT_EDGES = 2
START_TIMEOUT = 120.0
# a run must end within 180 s even if every op hangs: ops left when a phase
# exceeds its budget are charged as failures without running
UNTRACED_BUDGET = 100.0
TRACED_BUDGET = 40.0

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("pass_frac", "ratio"),
    ("digits_p50", "digits"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("boundary.distance_calls", "count"),
    ("boundary.distance_self_s", "s"),
    ("boundary.probes_per_distance", "count"),
    ("boundary.distance_err_max", "abs"),
    ("flows.build_calls", "count"),
    ("flows.build_ms", "ms"),
    ("flows.eval_calls", "count"),
    ("flows.eval_us", "us"),
    ("flows.terms", "count"),
    ("flows.err_max", "ratio"),
    ("exppoly.evaluate_calls", "count"),
    ("exppoly.evaluate_s", "s"),
    ("exppoly.integrate_calls", "count"),
    ("exppoly.integrate_s", "s"),
    ("core.enumerate_calls", "count"),
    ("core.gaussian_moment_calls", "count"),
    ("hankel.build_calls", "count"),
    ("hankel.build_s", "s"),
    ("hankel.classify_calls", "count"),
    ("hankel.classify_s", "s"),
    ("recovery.calls", "count"),
    ("recovery.self_s", "s"),
    ("recovery.roots_s", "s"),
    ("recovery.weights_s", "s"),
    ("recovery.residual_s", "s"),
    ("recovery.attempts_per_call", "count"),
    ("recovery.fail_k6", "count"),
    ("recovery.fail_k7", "count"),
    ("recovery.fail_k8", "count"),
    ("jsonio.load_ms", "ms"),
    ("jsonio.dump_ms", "ms"),
    ("jsonio.bytes_out", "bytes"),
    ("cli.import_ms", "ms"),
    ("cli.parse_ms", "ms"),
    ("cli.compute_ms", "ms"),
    ("cli.process_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (missing sources, a child that will not start)."""


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # cache bytecode as a default interpreter does; otherwise every CLI process
    # would compile the package from source when the caller's environment
    # disables the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, int, bool]:
    """Wait up to ``timeout`` s for ``proc`` (killing it after); (code, peak RSS KB, timed out)."""
    fd = os.pidfd_open(proc.pid)
    try:
        timed_out = not select.select([fd], [], [], timeout)[0]
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, timed_out


class Server:
    """A child.py op server; restarted after an op times out or the child dies."""

    def __init__(self, workload, inputs, trace, spans_stem, env, log):
        self.header = {"workload": workload, "trace": trace}
        self.inputs = json.dumps(inputs) + "\n"
        self.spans_stem, self.env, self.log = spans_stem, env, log
        self.spans_files: list[Path] = []
        self.peak_rss_kb = 0
        self.proc = None
        self._start()

    def _start(self):
        spans = None
        if self.header["trace"]:
            spans = Path(f"{self.spans_stem}-{len(self.spans_files)}.json")
            self.spans_files.append(spans)
        header = json.dumps(dict(self.header, spans=str(spans))) + "\n"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "serve"], cwd=ROOT, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
        )
        self.buf = b""
        try:
            self.proc.stdin.write((header + self.inputs).encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass
        if self._readline(START_TIMEOUT) != b"ready":
            self._end(kill=True)
            raise HarnessError("the op server did not start; see perfbench/out/children.log")

    def _readline(self, timeout: float) -> bytes | None:
        fd = self.proc.stdout.fileno()
        deadline = perf_counter() + timeout
        while b"\n" not in self.buf:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def run(self, i: int, deadline: float):
        """(seconds, status, payload) of op ``i``; status is ok, err or timeout."""
        try:
            self.proc.stdin.write(f"{i}\n".encode())
            self.proc.stdin.flush()
            line = self._readline(deadline + 1.0)
        except BrokenPipeError:
            line = None
        if line is None:
            self._end(kill=True)
            self._start()
            return deadline, "timeout", "no answer within the deadline"
        index, ns, status, payload = line.decode().split("\t", 3)
        if int(index) != i:
            raise HarnessError(f"op server answered op {index} for op {i}")
        seconds = int(ns) / 1e9
        if seconds > deadline:
            return seconds, "timeout", "op exceeded the deadline"
        return seconds, status, payload

    def _end(self, kill: bool):
        try:
            if not kill:
                self.proc.stdin.write(b"q\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        _, rss, _ = reap(self.proc, 0.0 if kill else 60.0)
        self.proc.stdout.close()
        self.peak_rss_kb = max(self.peak_rss_kb, rss)

    def close(self):
        self._end(kill=False)


def timed_passes(n_ops: int, seconds: float, seed: int, run_one, budget: float,
                 after_pass=lambda: None, min_passes: int = MIN_PASSES):
    """Closed loop over ops ``0..n_ops-1`` in whole passes, each in a fresh seeded order.

    ``min_passes`` passes always complete; another pass starts only if it is
    expected to end within ``seconds``.  ``after_pass`` runs between passes,
    outside any op's timing.  Returns ``[(op, seconds, status, payload)]``.
    """
    rng = random.Random(seed)
    execs = []
    start = perf_counter()
    for passes in itertools.count(1):
        order = list(range(n_ops))
        rng.shuffle(order)
        pass_start = perf_counter()
        for i in order:
            if perf_counter() - start > budget:
                execs.append((i, 0.0, "skipped", "run time budget exhausted"))
            else:
                execs.append((i,) + run_one(i))
        pass_time = perf_counter() - pass_start
        after_pass()
        if passes >= min_passes and perf_counter() - start + pass_time > seconds:
            return execs


def measure_setup(workload: str, env: dict, log, samples: list, repeats: int = 1) -> None:
    """Append ``repeats`` set-up times of fresh interpreters to ``samples``."""
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", workload], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=log, timeout=START_TIMEOUT, check=False,
        )
        if proc.returncode != 0:
            raise HarnessError(f"set-up of {workload} failed; see perfbench/out/children.log")
        samples.append(json.loads(proc.stdout)["setup_s"])


# ---------------------------------------------------------------- CLI ops


def cli_command(op: dict, files: dict, out: Path, traced_spans: Path | None) -> list[str]:
    args = [a.replace("{in}", str(files["in"])) for a in op["argv"]] + ["--out", str(out)]
    if traced_spans is None:
        return [sys.executable, "-m", "momentflow.cli"] + args
    return [sys.executable, str(HERE / "cli_trace.py"), str(traced_spans)] + args


def run_cli_op(i, op, files, workdir, env, log, deadline, traced_spans=None):
    """(seconds, status, (exit code, output bytes or None), peak RSS KB)."""
    out = workdir / f"out-{i}"
    out.unlink(missing_ok=True)
    argv = cli_command(op, files, out, traced_spans)
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=log)
    code, rss, timed_out = reap(proc, deadline)
    seconds = perf_counter() - start
    if timed_out:
        return seconds, "timeout", (code, None), rss
    output = out.read_bytes() if out.exists() else None
    return seconds, "ok" if code == 0 else "err", (code, output), rss


# ---------------------------------------------------------------- checking


def check_op(workload: str, op: dict, status: str, payload) -> tuple[float, bool, str]:
    """(scaled error or inf, passed, failure kind) of one op's output."""
    try:
        if workload == "cli-batch":
            if status == "timeout" or status == "skipped":
                return float("inf"), False, status
            err, ok = wl.check_cli(op, *payload)
        else:
            if status != "ok":
                kind = status if status != "err" else "raised " + json.loads(payload).split(":")[0]
                return float("inf"), False, kind
            out = wl.strict_json(payload)
            check = wl.check_recover if workload == "recover-1d" else wl.check_flow
            err, ok = check(out, op["want"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return float("inf"), False, f"invalid output ({exc})"[:120]
    return err, ok, "" if ok else "missed oracle tolerance"


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ---------------------------------------------------------------- per-layer metrics


def load_traces(files) -> list[dict]:
    traces = []
    for path, op in files:
        if path.exists():
            data = json.loads(path.read_text())
            if op is not None:
                for record in data["spans"]:
                    record[4] = op
            traces.append(data)
    return traces


def layer_metrics(ops, results, traces, overhead, cli_walls) -> dict:
    calls, total, self_ns = {}, {}, {}
    counts, timed = {}, {}
    probes = attempts = 0
    distance_err = 0.0
    cli_import = cli_main = 0
    jsonio_in_cmd = 0
    for data in traces:
        spans = data["spans"]
        for name, start, end, parent, op, self_time, note in spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + end - start
            self_ns[name] = self_ns.get(name, 0) + self_time
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "flows.evaluate_flow" and parent_name == "boundary.heat_distance_1d":
                probes += 1
            if name == "recovery.atoms_from_kernel":
                attempts += 1
            if name == "boundary.heat_distance_1d" and note is not None and "t0" in ops[op]:
                distance_err = max(distance_err, abs(note - ops[op]["t0"]))
            if name.startswith("jsonio.") and parent_name == "cli.command":
                jsonio_in_cmd += end - start
            if name == "cli.import":
                cli_import += end - start
            if name == "cli.main":
                cli_main += end - start
        for name, (n, ns) in data["timed"].items():
            counts[name] = counts.get(name, 0) + n
            timed[name] = timed.get(name, 0) + ns
        for name, n in data["counts"].items():
            counts[name] = counts.get(name, 0) + n
    terms = sum(r[6] or 0 for d in traces for r in d["spans"] if r[0] == "flows.build")

    def mean(name, scale):
        return total.get(name, 0) / calls[name] / scale if calls.get(name) else 0.0

    def per_process(ns):
        return ns / len(cli_walls) / 1e6 if cli_walls else 0.0

    distances = calls.get("boundary.heat_distance_1d", 0)
    recoveries = calls.get("recovery.recover", 0)
    flow_errs = [r["err"] for op, r in zip(ops, results)
                 if op.get("flow") and r["err"] != float("inf")]
    fail_k = {k: sum(1 for op, r in zip(ops, results) if op["tag"] == f"k{k}" and not r["passed"])
              for k in (6, 7, 8)}
    return {
        "boundary.distance_calls": distances,
        "boundary.distance_self_s": self_ns.get("boundary.heat_distance_1d", 0) / 1e9,
        "boundary.probes_per_distance": probes / distances if distances else 0.0,
        "boundary.distance_err_max": distance_err,
        "flows.build_calls": calls.get("flows.build", 0),
        "flows.build_ms": mean("flows.build", 1e6),
        "flows.eval_calls": calls.get("flows.evaluate_flow", 0),
        "flows.eval_us": mean("flows.evaluate_flow", 1e3),
        "flows.terms": terms / calls["flows.build"] if calls.get("flows.build") else 0.0,
        "flows.err_max": max(flow_errs, default=0.0),
        "exppoly.evaluate_calls": counts.get("exppoly.evaluate", 0),
        "exppoly.evaluate_s": timed.get("exppoly.evaluate", 0) / 1e9,
        "exppoly.integrate_calls": calls.get("exppoly.integrate_with_rate", 0),
        "exppoly.integrate_s": total.get("exppoly.integrate_with_rate", 0) / 1e9,
        "core.enumerate_calls": counts.get("core.enumerate_multiindices", 0),
        "core.gaussian_moment_calls": counts.get("core.gaussian_moment_1d", 0),
        "hankel.build_calls": calls.get("hankel.build_hankel", 0),
        "hankel.build_s": total.get("hankel.build_hankel", 0) / 1e9,
        "hankel.classify_calls": calls.get("hankel.classify_psd", 0),
        "hankel.classify_s": total.get("hankel.classify_psd", 0) / 1e9,
        "recovery.calls": recoveries,
        "recovery.self_s": self_ns.get("recovery.recover", 0) / 1e9,
        "recovery.roots_s": total.get("recovery.atoms_from_kernel", 0) / 1e9,
        "recovery.weights_s": total.get("recovery.weights_from_atoms", 0) / 1e9,
        "recovery.residual_s": total.get("recovery.residual", 0) / 1e9,
        "recovery.attempts_per_call": attempts / recoveries if recoveries else 0.0,
        "recovery.fail_k6": fail_k[6],
        "recovery.fail_k7": fail_k[7],
        "recovery.fail_k8": fail_k[8],
        "jsonio.load_ms": mean("jsonio.load_json", 1e6),
        "jsonio.dump_ms": mean("jsonio.dump_json", 1e6),
        "jsonio.bytes_out": sum(r[6] or 0 for d in traces for r in d["spans"]
                                if r[0] == "jsonio.dump_json"),
        "cli.import_ms": per_process(cli_import),
        "cli.parse_ms": per_process(total.get("cli.parse", 0)),
        "cli.compute_ms": per_process(total.get("cli.command", 0) - jsonio_in_cmd),
        "cli.process_ms": (statistics.fmean(cli_walls) - per_process(cli_import + cli_main))
        if cli_walls else 0.0,
        "trace.overhead_frac": overhead,
    }


# ---------------------------------------------------------------- one workload


def environment(seed: int, nproc: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": nproc,
            "blas_threads": nproc, "seed": seed}


def generate(workload: str, seed: int, scale: float, workdir: Path) -> list[dict]:
    if workload == "recover-1d":
        return wl.gen_recover(seed, per_k=max(1, round(70 * scale)))
    if workload == "flow-nd":
        return wl.gen_flow(seed, units=max(2, round(8 * scale)))
    ops = wl.gen_cli(seed, cycles=max(2, round(6 * scale)), goldens=wl.load_goldens(ROOT))
    for i, op in enumerate(ops):
        path = workdir / f"in-{i}.json"
        path.write_text(op["files"]["in"])
        op["paths"] = {"in": path}
    return ops


def run_workload(workload: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """Run one workload; returns the result object plus a ``details`` entry."""
    if not (ROOT / "src" / "momentflow" / "__init__.py").is_file():
        raise HarnessError(f"no momentflow sources under {ROOT / 'src'}")
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    deadline = DEADLINE[workload]
    try:
        with open(OUT / "children.log", "w") as log:
            ops = generate(workload, seed, scale, workdir)
            setup = []
            measure_setup(workload, env, log, setup, SETUP_AT_EDGES)

            def between_passes():
                measure_setup(workload, env, log, setup)

            if workload == "cli-batch":
                untraced, traced, rss_kb, trace_files, walls = _run_cli(
                    ops, seed, seconds, workdir, env, log, deadline, between_passes)
            else:
                untraced, traced, rss_kb, trace_files, walls = _run_library(
                    workload, ops, seed, seconds, env, log, deadline, between_passes)
            measure_setup(workload, env, log, setup, SETUP_AT_EDGES)
            traces = load_traces(trace_files)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _summarize(workload, seed, nproc, ops, setup, untraced, traced, rss_kb,
                      traces, walls, deadline)


def traced_count(ops: list) -> int:
    """The traced pass runs the first half of the ops.

    Every instance class is interleaved through the op list, so the half
    holds each class in its share.
    """
    return (len(ops) + 1) // 2


def _run_library(workload, ops, seed, seconds, env, log, deadline, between_passes):
    inputs = [op["input"] for op in ops]
    server = Server(workload, inputs, False, None, env, log)
    try:
        untraced = timed_passes(len(ops), seconds, seed, lambda i: server.run(i, deadline),
                                UNTRACED_BUDGET, between_passes)
    finally:
        server.close()
    tracer = Server(workload, inputs, True, OUT / f"trace-{workload}", env, log)
    try:
        traced = timed_passes(traced_count(ops), 0.0, seed, lambda i: tracer.run(
            i, deadline * TRACED_DEADLINE_FACTOR), TRACED_BUDGET, min_passes=1)
    finally:
        tracer.close()
    return untraced, traced, server.peak_rss_kb, [(p, None) for p in tracer.spans_files], []


def _run_cli(ops, seed, seconds, workdir, env, log, deadline, between_passes):
    rss = [0]

    def untraced_one(i):
        secs, status, payload, kb = run_cli_op(i, ops[i], ops[i]["paths"], workdir, env, log,
                                               deadline)
        rss[0] = max(rss[0], kb)
        return secs, status, payload

    untraced = timed_passes(len(ops), seconds, seed, untraced_one, UNTRACED_BUDGET,
                            between_passes)
    trace_files, walls = [], []

    def traced_one(i):
        spans = OUT / f"trace-cli-batch-{i}.json"
        spans.unlink(missing_ok=True)
        secs, status, payload, _ = run_cli_op(i, ops[i], ops[i]["paths"], workdir, env, log,
                                              deadline * TRACED_DEADLINE_FACTOR, spans)
        trace_files.append((spans, i))
        walls.append(secs * 1e3)
        return secs, status, payload

    traced = timed_passes(traced_count(ops), 0.0, seed, traced_one, TRACED_BUDGET,
                          min_passes=1)
    return untraced, traced, rss[0], trace_files, walls


def _summarize(workload, seed, nproc, ops, setup, untraced, traced, rss_kb, traces, walls,
               deadline):
    first = {}
    nondeterministic = []
    for i, secs, status, payload in untraced:
        if i not in first:
            first[i] = (status, payload)
        elif (status, payload) != first[i] and "skipped" not in (status, first[i][0]):
            nondeterministic.append(i)
    results = []
    for i, op in enumerate(ops):
        err, ok, kind = check_op(workload, op, *first[i])
        results.append({"err": err, "passed": ok, "kind": kind,
                        "digits": wl.digits(err) if ok else 0.0})
    mismatched = [i for i, _, status, payload in traced
                  if status != "skipped" and (status, payload) != first[i]]
    envelope_failures = [i for i, (op, r) in enumerate(zip(ops, results))
                         if op["envelope"] and not r["passed"]]
    best = dict.fromkeys(range(len(ops)), 0.0)
    for i, secs, status, _ in sorted(untraced, key=lambda e: -e[1]):
        if status != "skipped":
            best[i] = secs
    charged = [best[i] if r["passed"] else deadline + best[i] for i, r in enumerate(results)]
    failed = sum(1 for r in results if not r["passed"])
    # tracing overhead: the traced pass against the untraced executions of the same ops
    traced_ok = [(i, secs) for i, secs, status, _ in traced if status != "skipped"]
    traced_set = {i for i, _ in traced_ok}
    overhead = (statistics.median(s for _, s in traced_ok)
                / statistics.median(s for i, s, _, _ in untraced if i in traced_set) - 1.0
                if traced_ok else 0.0)
    end_to_end = {
        "latency_p50_ms": percentile(charged, 50) * 1e3,
        "latency_p90_ms": percentile(charged, 90) * 1e3,
        "pass_frac": (len(ops) - failed) / len(ops),
        "digits_p50": statistics.median(r["digits"] for r in results),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    per_layer = layer_metrics(ops, results, traces, overhead, walls)
    kinds = Counter(r["kind"] for r in results if not r["passed"])
    by_tag = {tag: [n, 0] for tag, n in Counter(op["tag"] for op in ops).items()}
    for op, r in zip(ops, results):
        by_tag[op["tag"]][1] += not r["passed"]
    details = {
        "workload": workload, "environment": environment(seed, nproc),
        "ops": len(ops), "timed_executions": len(untraced), "traced_executions": len(traced_ok),
        "deadline_ms": deadline * 1e3, "fail_frac": failed / len(ops),
        "failures_by_kind": kinds, "attempted_failed_by_tag": by_tag,
        "setup_samples_s": setup,
        "envelope_failures": [ops[i]["tag"] for i in envelope_failures],
        "traced_output_mismatches": len(mismatched),
        "nondeterministic_ops": len(nondeterministic),
    }
    return {
        "correct": not (envelope_failures or mismatched or nondeterministic),
        "attempted": len(ops),
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "details": details,
    }


def result_line(result: dict, trace: bool) -> dict:
    table, source = (PER_LAYER, "per_layer") if trace else (END_TO_END, "end_to_end")
    metrics = {name: {"value": result[source][name], "unit": unit} for name, unit in table}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds)
        except (HarnessError, OSError, subprocess.SubprocessError) as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({"details": result["details"]}))
        for source, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            for metric, unit in table:
                print(f"# {name} {metric} = {result[source][metric]:.6g} {unit}")
        lines[name] = result_line(result, bool(args.trace))
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({"workloads": lines}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
