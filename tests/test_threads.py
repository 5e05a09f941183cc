"""Tests for the kd-tree worker setting, and for concurrent calls.

The bits at different BLAS thread counts are compared by
``tests/test_cli.py::test_estimate_byte_identical_across_blas_thread_counts``.
"""

import os
import threading

import numpy as np
import pytest

from nncorr import _threads
from nncorr.bootstrap import analyze
from nncorr.dataset import Sample
from nncorr.errors import InputError


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
# concurrent calls


def test_concurrent_calls_give_the_sequential_bits():
    rng = np.random.default_rng(9)
    samples = []
    for n in (1500, 900):
        x = rng.uniform(size=(n, 6))
        samples.append(Sample(x=x, y=x[:, 0] * x[:, 1] + 0.3 * rng.standard_normal(n)))

    def run(s):
        a = analyze(s, b_reps=40, seed=3)
        return [v.hex() for v in (a.t_hat, a.l_hat, a.t_bc, a.se_t, a.se_tbc)]

    want = [run(s) for s in samples]
    got = [[None] * 3 for _ in samples]
    start = threading.Barrier(len(samples))

    def worker(i):
        start.wait()
        for k in range(3):
            got[i][k] = run(samples[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(samples))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    for i, w in enumerate(want):
        assert got[i] == [w] * 3
