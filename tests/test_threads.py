"""Tests for the thread settings: kd-tree workers and the BLAS pin."""

import os
import sys
import threading

import numpy as np
import pytest

from nncorr import _threads, bias_correction
from nncorr.bias_correction import PipelineConfig, estimate
from nncorr.bootstrap import _replicates, analyze
from nncorr.dataset import Sample
from nncorr.errors import InputError
from nncorr.rng import _integers_block


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
# BLAS pin


class _ProcessWideSetter:
    """Stands in for OpenBLAS's setter: one process-wide count, old one returned."""

    def __init__(self, count=4):
        self.count = count
        self.calls = []

    def __call__(self, k):
        self.calls.append(k)
        previous, self.count = self.count, k
        return previous


@pytest.fixture()
def fake_setter(monkeypatch):
    setter = _ProcessWideSetter()
    monkeypatch.setattr(_threads, "_blas_setter", lambda: setter)
    return setter


def _sample(seed=5, n=120, d=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    return Sample(x=x, y=x[:, 0] + 0.4 * rng.standard_normal(n))


def test_stages_run_on_one_blas_thread_and_restore(fake_setter, monkeypatch):
    seen = []
    real = bias_correction._l_hat

    def spy(*args):
        seen.append(fake_setter.count)
        return real(*args)

    monkeypatch.setattr(bias_correction, "_l_hat", spy)
    s = _sample()
    analyze(s, b_reps=20, seed=0)
    assert seen and set(seen) == {1}
    assert fake_setter.count == 4
    assert fake_setter.calls == [1, 4] * (len(fake_setter.calls) // 2)


def test_blas_count_is_restored_when_a_stage_raises(fake_setter):
    # Unscaled x = k * 1e100: the degree-2 Gram entries overflow in the solve.
    x = np.arange(1.0, 21.0)[:, None] * 1e100
    s = Sample(x=x, y=np.random.default_rng(0).standard_normal(20))
    cfg = PipelineConfig(scale_covariates=False)
    with pytest.raises(InputError, match="Gram matrix overflows"):
        estimate(s, cfg)
    assert fake_setter.calls == [1, 4]
    # The replicate engine alone: analyze would fail in estimate first.
    with pytest.raises(InputError, match="Gram matrix overflows"):
        _replicates(s, cfg, _integers_block(0, 20, 4, 10))
    assert fake_setter.count == 4 and fake_setter.calls[-1] == 4


def test_overlapping_pins_restore_once(fake_setter):
    # The setter is process-wide, so blocks that overlap (nested, or in two
    # threads) and end in any order share one pin.
    a, b = _threads.single_blas_thread(), _threads.single_blas_thread()
    a.__enter__()
    b.__enter__()
    a.__exit__(None, None, None)
    assert fake_setter.count == 1
    b.__exit__(None, None, None)
    assert fake_setter.count == 4 and fake_setter.calls == [1, 4]


def test_pin_holds_under_many_threads(fake_setter):
    # More threads than cores, switching often: every body sees one BLAS
    # thread, and the count is restored once the last body ends.
    n_threads = (os.cpu_count() or 1) + 2
    bad = []
    start = threading.Barrier(n_threads)

    def worker():
        start.wait()
        for _ in range(300):
            with _threads.single_blas_thread():
                if fake_setter.count != 1:
                    bad.append(fake_setter.count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
    assert fake_setter.count == 4 and _threads._pin_depth == 0


def test_without_the_setter_nothing_is_pinned_and_the_bits_agree(monkeypatch):
    # At n = 3 000 the default OpenBLAS pool splits the ridge products over
    # its threads when the pin is off.
    s = _sample(n=3000, d=6)
    pinned = estimate(s)
    monkeypatch.setattr(_threads, "_blas_setter", lambda: None)
    assert not _threads.blas_pin_active()
    free = estimate(s)
    assert [v.hex() for v in (free.t_hat, free.l_hat, free.t_bc)] == [
        v.hex() for v in (pinned.t_hat, pinned.l_hat, pinned.t_bc)]


def _scipy_openblas() -> bool:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] == "scipy-openblas"
    except (KeyError, TypeError, ValueError):
        return False


def _blas_count(setter) -> int:
    current = setter(1)
    setter(current)
    return current


@pytest.mark.skipif(not _scipy_openblas(), reason="NumPy is not built on scipy-openblas")
def test_numpy_openblas_setter_is_found():
    assert _threads.blas_pin_active()
    setter = _threads._blas_setter()
    before = _blas_count(setter)
    with _threads.single_blas_thread():
        assert _blas_count(setter) == 1
    assert _blas_count(setter) == before


def test_concurrent_calls_give_the_sequential_bits():
    rng = np.random.default_rng(9)
    samples = []
    for n in (1500, 900):
        x = rng.uniform(size=(n, 6))
        samples.append(Sample(x=x, y=x[:, 0] * x[:, 1] + 0.3 * rng.standard_normal(n)))

    def run(s):
        a = analyze(s, b_reps=40, seed=3)
        return [v.hex() for v in (a.t_hat, a.l_hat, a.t_bc, a.se_t, a.se_tbc)]

    setter = _threads._blas_setter()
    before = None if setter is None else _blas_count(setter)
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
    if setter is not None:
        assert _blas_count(setter) == before
