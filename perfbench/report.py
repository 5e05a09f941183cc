"""Print every benchmark metric for every workload, with the tracing overhead.

    python3 perfbench/report.py [--seed 0] [--seconds 20] [--workload NAME ...]

For each workload this runs ``run.py`` twice in fresh processes, untraced
(end-to-end metrics) and traced (per-layer metrics plus the single-threaded
reference), then prints one table per workload. Tracing overhead is
1 - traced ops/s over untraced ops/s. Exits 1 if any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    diag = next((json.loads(ln.split(": ", 1)[1]) for ln in lines
                 if ln.startswith("diagnostics: ")), {})
    return json.loads(lines[-1]), diag


def main(argv=None) -> int:
    default_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=default_seconds)
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)

    all_correct = True
    for name in args.workload or list(workloads.WORKLOADS):
        plain, diag = bench(name, args.seed, args.seconds, 0)
        traced, tdiag = bench(name, args.seed, args.seconds, 1)
        all_correct &= plain["correct"] and traced["correct"]
        print(f"== {name}  (seed {args.seed}, {args.seconds:g} s, {diag.get('ops')} ops, "
              f"correct: {plain['correct'] and traced['correct']})")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:<46} {m['value']:>14.6g} {m['unit']}")
        t = diag.get("op_s_tail")
        tail_text = (f"{t['value']:.6g} s at p{t['percentile']:.1f} of {t['ops']} ops"
                     if t else "omitted (fewer than 11 ops)")
        print(f"  {'op_s_tail':<46} {tail_text}")
        print(f"  {'ops_failed_ratio':<46} {diag.get('ops_failed_ratio'):>14.6g} "
              f"({plain['failed']} of {plain['attempted']})")
        overhead = 1.0 - traced["metrics"]["trace.ops_per_s"]["value"] / plain["metrics"]["ops_per_s"]["value"]
        print(f"  {'tracing overhead':<46} {100.0 * overhead:>13.2f}% of ops/s")
        print(f"  {'per layer (traced)':<46} {'default':>14} {'1 thread':>14}")
        single = tdiag.get("single_threaded", {})
        for metric, m in traced["metrics"].items():
            st = single.get(metric)
            st_text = f"{st:>14.6g}" if st is not None else f"{'-':>14}"
            print(f"  {metric:<46} {m['value']:>14.6g} {st_text} {m['unit']}")
        if tdiag.get("absent_layers"):
            print(f"  absent layers: {', '.join(tdiag['absent_layers'])}")
        print(f"  environment: {json.dumps(diag.get('environment'))}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
