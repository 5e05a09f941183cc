"""Tests for the kd-tree worker setting, the helper thread of ``analyze``, and concurrent calls.

The bits at different BLAS thread counts are compared by
``tests/test_cli.py::test_estimate_byte_identical_across_blas_thread_counts``.
"""

import os
import sys
import threading
import time
import types

import numpy as np
import pytest

from nncorr import _threads, bootstrap, nn_graph
from nncorr.bias_correction import estimate
from nncorr.bootstrap import analyze
from nncorr.cli import main
from nncorr.dataset import Sample
from nncorr.errors import InputError
from nncorr.simulation import CopulaConfig, gen_gaussian_copula


@pytest.fixture(autouse=True)
def _reset_workers():
    yield
    _threads.set_workers(None)


# ---------------------------------------------------------------------------
# workers


def test_set_workers_returns_the_previous_setting():
    assert _threads.set_workers(2) is None
    assert _threads.set_workers(0) == 2
    assert _threads.set_workers(None) is None


def test_negative_worker_count_is_an_input_error():
    _threads.set_workers(1)
    with pytest.raises(InputError, match="0 means all cores"):
        _threads.set_workers(-1)
    assert _threads.get_workers() == 1


def test_worker_count_is_capped_at_the_core_count(monkeypatch):
    # Only the resolved count is checked; no search runs with it.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("ACBC_THREADS", raising=False)
    for k in (None, 0):
        _threads.set_workers(k)
        assert _threads.get_workers() == 4
    _threads.set_workers(3)
    assert _threads.get_workers() == 3
    _threads.set_workers(10**6)
    assert _threads.get_workers() == 4
    _threads.set_workers(None)
    for env, want in (("2", 2), ("1000000", 4), ("0", 4), ("-3", 4), ("many", 4)):
        monkeypatch.setenv("ACBC_THREADS", env)
        assert _threads.get_workers() == want, env


def test_workers_block_restores_the_setting_on_error():
    _threads.set_workers(2)
    with pytest.raises(RuntimeError):
        with _threads.workers(1):
            assert _threads.get_workers() == 1
            raise RuntimeError("boom")
    assert _threads.get_workers() == 2
    with _threads.workers(None):
        assert _threads.get_workers() == 2


# ---------------------------------------------------------------------------
# the full-sample estimate beside the replicates


@pytest.fixture()
def cores(monkeypatch):
    """At least four cores as the worker cap sees them, so a setting of 2 or more holds."""
    count = max(os.cpu_count() or 1, 4)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    return count


@pytest.fixture()
def helpers(monkeypatch):
    """The threads that ``nncorr.bootstrap`` starts while the test runs.

    SciPy's kd-tree runs its workers on Python threads of its own, so only
    the module's own ``threading.Thread`` is counted.
    """
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(bootstrap, "threading", types.SimpleNamespace(Thread=Spy))
    return started


def _bits(a):
    return [v.hex() for v in (a.t_hat, a.l_hat, a.t_bc, a.se_t, a.se_tbc)]


@pytest.mark.parametrize("n", [2000, 3000])
def test_analyze_gives_the_same_bits_at_every_setting(cores, n):
    s = gen_gaussian_copula(CopulaConfig(n=n, d=6, rho=0.9, seed=n))
    got = []
    for k in (1, 2, cores):
        _threads.set_workers(k)
        got.append(_bits(analyze(s)))
    assert got == [got[0]] * 3


def _binary_y():
    rng = np.random.default_rng(1)
    return Sample(x=rng.uniform(size=(2500, 2)), y=rng.integers(0, 2, 2500).astype(float))


def _four_level_y():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(3000, 1))
    z = x[:, 0] + 0.5 * rng.standard_normal(3000) - 0.25
    return Sample(x=x, y=np.digitize(z, [-0.45, 0.25, 0.95]).astype(float))


@pytest.mark.parametrize("make,message", [
    # Both the full sample and its replicates fail; the full sample's error wins.
    (_binary_y, r"^coefficient 1\.749\d* outside sane range"),
    # The full sample passes and replicate 2 fails.
    (_four_level_y, r"^bootstrap replicate 2 of 200 \(m = 54\): coefficient 1\.53\d* outside"),
], ids=["estimate-first", "replicate"])
def test_errors_keep_the_sequential_order_at_every_setting(cores, make, message):
    s = make()
    if make is _four_level_y:
        estimate(s)
    messages = set()
    for k in (1, 2, cores):
        _threads.set_workers(k)
        with pytest.raises(InputError, match=message) as info:
            analyze(s)
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize("n,k,started", [(1999, 4, 0), (2000, 1, 0), (2000, 2, 1), (3000, 4, 1)])
def test_one_helper_thread_from_two_workers(cores, helpers, n, k, started):
    s = gen_gaussian_copula(CopulaConfig(n=n, d=2, rho=0.5, seed=1))
    _threads.set_workers(k)
    analyze(s, b_reps=4)
    assert len(helpers) == started


def test_threads_option_1_runs_on_the_calling_thread(cores, helpers, capsys, tmp_path):
    s = gen_gaussian_copula(CopulaConfig(n=2000, d=2, rho=0.5, seed=1))
    path = tmp_path / "s.csv"
    np.savetxt(path, np.column_stack([s.x, s.y]), delimiter=",")
    assert main(["estimate", "--input", str(path), "--bootstrap-reps", "4", "--threads", "1"]) == 0
    assert helpers == []


@pytest.mark.parametrize("n,k", [(2000, 2), (2000, 4), (3000, 2), (3000, 3), (3000, 4)])
def test_helper_search_runs_one_worker_fewer(cores, monkeypatch, n, k):
    # At n <= 3 000 the replicates search by brute force, so the one query
    # recorded is the full sample's.
    calls = []
    caller = threading.current_thread()

    class Spy(nn_graph.cKDTree):
        def query(self, *args, workers=1, **kwargs):
            calls.append((threading.current_thread() is caller, workers))
            return super().query(*args, workers=workers, **kwargs)

    monkeypatch.setattr(nn_graph, "cKDTree", Spy)
    _threads.set_workers(k)
    analyze(gen_gaussian_copula(CopulaConfig(n=n, d=2, rho=0.5, seed=1)), b_reps=4)
    assert calls == [(False, max(1, min(k - 1, n // 1000)))]


@pytest.mark.parametrize("fail", ["replicates", "estimate"])
def test_helper_is_joined_on_keyboard_interrupt(cores, monkeypatch, fail):
    # The interrupt reaches the calling thread in the replicates, or the
    # helper raises it; either way analyze joins the helper, then raises it.
    done = []
    real = bootstrap.estimate

    def slow_estimate(sample, config):
        time.sleep(0.2)
        if fail == "estimate":
            raise KeyboardInterrupt
        done.append(real(sample, config))
        return done[-1]

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(bootstrap, "estimate", slow_estimate)
    if fail == "replicates":
        monkeypatch.setattr(bootstrap, "_replicates", interrupted)
    _threads.set_workers(2)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        analyze(gen_gaussian_copula(CopulaConfig(n=2000, d=2, rho=0.5, seed=1)), b_reps=4)
    assert threading.active_count() == before
    assert len(done) == (fail == "replicates")


# ---------------------------------------------------------------------------
# concurrent calls


def test_concurrent_calls_give_the_sequential_bits(cores):
    rng = np.random.default_rng(9)
    samples = []
    for n in (1500, 900, 2500):
        x = rng.uniform(size=(n, 6))
        samples.append(Sample(x=x, y=x[:, 0] * x[:, 1] + 0.3 * rng.standard_normal(n)))

    def run(s):
        a = analyze(s, b_reps=40, seed=3)
        return [v.hex() for v in (a.t_hat, a.l_hat, a.t_bc, a.se_t, a.se_tbc)]

    _threads.set_workers(1)
    want = [run(s) for s in samples]
    # At n = 2 500 every concurrent call starts a helper thread of its own,
    # and a short switch interval interleaves the threads more often.
    _threads.set_workers(2)
    got = [[None] * 3 for _ in samples]
    start = threading.Barrier(len(samples))

    def worker(i):
        start.wait()
        for k in range(3):
            got[i][k] = run(samples[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(samples))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, w in enumerate(want):
        assert got[i] == [w] * 3
