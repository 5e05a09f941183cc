"""The benchmark's own self-tests, run with the rest of the suite.

They check perfbench's span arithmetic, its tracer and that its metrics
agree with ``BENCHMARK.json``; a change that breaks them fails here too.

    python -m pytest -q -p no:cacheprovider perfbench

The tracer also runs here on the package itself: a function it times that
is renamed or deleted in ``src/`` shows up as a new absent layer.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import nncorr.cli  # noqa: F401  (the tracer wraps only modules already loaded)
import nncorr.simulation

REPO_ROOT = Path(__file__).resolve().parents[1]

# Layers the tracer still lists whose functions the package no longer has.
ABSENT = [
    "dataset.compute_ranks",
    "nn_graph.nn_brute_force",
    "estimator.chatterjee_t",
    "ridge_series.ridge_fit_all",
    "ridge_series.ghat_matrix",
    "bias_correction.bias_estimate",
    "bias_correction.bias_estimate_streamed",
    "bootstrap.mn_bootstrap_pair",
    "bootstrap.mn_bootstrap",
    "bootstrap._t_hat_only",
    "_jsonfmt.dumps",
]


def test_perfbench_selftests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        capture_output=True, text=True, timeout=600, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_finds_every_traced_function_of_the_package():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    run_study = nncorr.simulation.run_study
    t.install("nncorr")
    try:
        assert nncorr.simulation.run_study is not run_study
        assert t.absent == ABSENT
    finally:
        t.uninstall()
    assert nncorr.simulation.run_study is run_study
