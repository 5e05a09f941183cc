"""Closed-loop benchmark of nncorr, one workload per process.

    python3 perfbench/run.py --workload study_n300 --seed 0 --seconds 30 --trace 0

One client sends the next op only when the previous one has returned, for
``--seconds`` seconds, with the program's default threading (thread
settings are recorded, not pinned). Before the loop a reference op (op 0 of
seed 0) warms the process up and is checked against ``reference.json``;
every op in the loop must give finite estimates.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps nncorr's
layer functions (see ``tracer.py``) and reports per-op call counts and
self times; it also starts one child run with every thread count set to 1
before import, reported on the diagnostics line only.

Lines above the last one are for people: a table, then ``diagnostics:``
with JSON holding the tail latency, failure ratio and environment. The
last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
TRACE_OPS_PER_S = "trace.ops_per_s"
SETUP_PROBES = 5
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "ACBC_THREADS": "1"}
CHILD_TIMEOUT_S = 150


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.per_layer_names():
        if name.endswith(".self_s"):
            units[name] = "s/op"
        elif name.endswith("_bytes"):
            units[name] = "B/op"
        else:
            units[name] = "count/op"
    units[TRACE_OPS_PER_S] = "1/s"
    return units


def tail(times: list[float]) -> dict | None:
    """Time at the highest percentile with at least ten ops beyond it."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "ops": n}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    env = {key: os.environ.get(key) for key in SINGLE_THREAD_ENV}
    return {"cpu_count": os.cpu_count(), **env, "blas": blas_name,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def attempt(wl, inp, reference=None):
    """Run one op; return (output, problems). An exception is a problem."""
    try:
        out = wl.run(inp)
        return out, workloads.check(wl.values(out), reference)
    except Exception:  # noqa: BLE001 - a failing op is counted, the run goes on
        return None, [traceback.format_exc()]


class Loop:
    """Ops sent back to back for ``seconds`` seconds, and what they measured."""

    def __init__(self, wl, seed: int, seconds: float, tracer=None):
        self.times: list[float] = []
        self.cpus: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.first = None  # (input, output bytes) of op 0, for the re-run check
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            inp = wl.prepare(workloads.op_seed(seed, k))
            if tracer is not None:
                tracer.op = k
            c0, t0 = time.process_time(), time.perf_counter()
            out, problems = attempt(wl, inp)
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.op = None
            self.times.append(t1 - t0)
            self.cpus.append(c1 - c0)
            if problems:
                self.failed += 1
                self.problems.extend(f"op {k}: {p}" for p in problems)
            elif k == 0 and wl.repeat_first:
                self.first = (inp, wl.fingerprint(out))
            k += 1

    @property
    def ops(self) -> int:
        return len(self.times)

    @property
    def ops_per_s(self) -> float:
        return (self.ops - self.failed) / sum(self.times)


def measure_setup(args) -> float:
    """Median over fresh processes of process start to the first op being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed with code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def single_threaded_run(args) -> dict:
    """Traced run of half the length with all thread counts at 1; diagnostics only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / 2), "--trace", "1",
           "--single-threaded"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-2000:]}
    return json.loads(lines[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--single-threaded", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def run(args, workdir: Path) -> dict:
    # The child goes first, so the two processes never hold inputs at once.
    single = single_threaded_run(args) if args.trace and not args.single_threaded else None
    nncorr = workloads.load_nncorr()
    wl = workloads.WORKLOADS[args.workload](nncorr, workdir)
    if args.setup_probe:
        wl.prepare(workloads.op_seed(args.seed, 0))
        print("ready", flush=True)
        return {}

    # Untimed check ops: the reference op (which also warms the process up)
    # before the loop, and the byte-identical re-run of op 0 after it.
    reference = workloads.load_reference()[wl.name]
    checks = {"reference op": attempt(wl, wl.prepare(workloads.REFERENCE_SEED), reference)[1]}

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        loop = Loop(wl, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if loop.first is not None:
        inp, want = loop.first
        out, rerun = attempt(wl, inp)
        if not rerun and wl.fingerprint(out) != want:
            rerun = ["output bytes differ from the first run"]
        checks["re-run of op 0"] = rerun

    problems = loop.problems + [f"{label}: {p}" for label, ps in checks.items() for p in ps]
    attempted = loop.ops + len(checks)
    failed = loop.failed + sum(1 for ps in checks.values() if ps)

    diagnostics = {
        "workload": wl.name, "seed": args.seed, "ops": loop.ops,
        "ops_failed_ratio": failed / attempted, "environment": environment(),
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts, loop.ops)
        metrics[TRACE_OPS_PER_S] = loop.ops_per_s
        units = per_layer_units()
        diagnostics["absent_layers"] = tracer.absent
        if single is not None:
            diagnostics["single_threaded"] = {
                k: v["value"] for k, v in single.get("metrics", {}).items()}
            if not single.get("correct"):
                problems.append(f"single-threaded run failed: {single.get('error', '')}")
    else:
        metrics = {
            "ops_per_s": loop.ops_per_s,
            "op_s_p50": statistics.median(loop.times),
            "cpu_s_per_op": sum(loop.cpus) / loop.ops,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": measure_setup(args),
        }
        units = END_TO_END_UNITS
        diagnostics["op_s_tail"] = tail(loop.times)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<48} {value:>14.6g} {units[name]}")
    print("diagnostics: " + json.dumps(diagnostics))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.single_threaded:
        os.environ.update(SINGLE_THREAD_ENV)  # before numpy and scipy are imported
    workdir = workloads.ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
