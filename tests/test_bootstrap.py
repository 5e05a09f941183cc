"""Tests for m-out-of-n bootstrap variance estimation and intervals."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from nncorr import bootstrap
from nncorr.bias_correction import PipelineConfig, estimate
from nncorr.bootstrap import (
    VarianceEstimate,
    _draws,
    _replicates,
    confidence_interval,
    default_m,
    mn_bootstrap,
    mn_bootstrap_pair,
)
from nncorr.dataset import Sample
from nncorr.errors import FactorizationError, InputError, NonFiniteInputError

Z975 = 1.9599639845400543  # standard normal quantile at 0.975


def _sample(seed=61, n=120, d=2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    y = x[:, 0] + 0.5 * rng.standard_normal(n)
    return Sample(x=x, y=y)


def test_default_m_is_root_n():
    assert default_m(300) == 17
    assert default_m(4) == 2
    assert default_m(2000) == 44
    assert default_m(99) == 9


def test_constant_statistic_has_zero_variance():
    v = mn_bootstrap(
        _sample(), PipelineConfig(), "t_hat", b_reps=25, seed=1,
        statistic=lambda x, y, cfg: 0.42,
    )
    assert v.sigma2_hat == 0.0
    assert v.se == 0.0
    assert v.b_reps == 25 and v.seed == 1


def test_bootstrap_is_deterministic():
    s = _sample()
    a = mn_bootstrap(s, PipelineConfig(), "t_hat", b_reps=40, seed=7)
    b = mn_bootstrap(s, PipelineConfig(), "t_hat", b_reps=40, seed=7)
    assert a == b
    c = mn_bootstrap(s, PipelineConfig(), "t_hat", b_reps=40, seed=8)
    assert c.sigma2_hat != a.sigma2_hat


def test_subsample_draws_do_not_depend_on_statistic_choice():
    # The same seed must feed identical subsamples to either statistic, so a
    # statistic that only looks at the drawn rows sees no difference.
    s = _sample()
    probe = lambda x, y, cfg: float(x.sum() + 3.0 * y.sum())
    a = mn_bootstrap(s, PipelineConfig(), "t_hat", b_reps=30, seed=5, statistic=probe)
    b = mn_bootstrap(s, PipelineConfig(), "t_bc", b_reps=30, seed=5, statistic=probe)
    assert a == b


def test_pair_matches_separate_runs():
    s = _sample(seed=62, n=150)
    cfg = PipelineConfig()
    v_t, v_bc = mn_bootstrap_pair(s, cfg, b_reps=35, seed=11)
    assert v_t == mn_bootstrap(s, cfg, "t_hat", b_reps=35, seed=11)
    assert v_bc == mn_bootstrap(s, cfg, "t_bc", b_reps=35, seed=11)


def test_explicit_m_is_respected():
    s = _sample()
    v = mn_bootstrap(s, PipelineConfig(), "t_hat", b_reps=20, m=25, seed=2)
    assert v.m == 25
    v_default = mn_bootstrap(s, PipelineConfig(), "t_hat", b_reps=20, seed=2)
    assert v_default.m == default_m(s.n) == 10


def test_sigma2_scales_variance_by_m():
    # sigma2_hat = m * Var(replicates); a scripted two-point statistic pins
    # the arithmetic exactly.
    s = _sample(seed=63, n=100)
    vals = iter([0.0, 1.0] * 10)
    v = mn_bootstrap(
        s, PipelineConfig(), "t_hat", b_reps=20, m=16, seed=4,
        statistic=lambda x, y, cfg: next(vals),
    )
    expected = 16 * np.var([0.0, 1.0] * 10, ddof=1)
    assert abs(v.sigma2_hat - expected) < 1e-12
    assert abs(v.se - np.sqrt(expected / 100)) < 1e-15


def test_bootstrap_argument_validation():
    s = _sample()
    cfg = PipelineConfig()
    with pytest.raises(InputError):
        mn_bootstrap(s, cfg, "t_med", b_reps=10)
    with pytest.raises(InputError):
        mn_bootstrap(s, cfg, "t_hat", b_reps=1)
    with pytest.raises(InputError):
        mn_bootstrap(s, cfg, "t_hat", b_reps=10, m=1)
    with pytest.raises(InputError):
        mn_bootstrap(s, cfg, "t_hat", b_reps=10, m=s.n + 1)
    with pytest.raises(InputError):
        mn_bootstrap_pair(s, cfg, b_reps=1)
    with pytest.raises(InputError):
        VarianceEstimate(sigma2_hat=-0.1, se=0.0, m=5, b_reps=10, seed=0)
    with pytest.raises(InputError):
        VarianceEstimate(sigma2_hat=0.1, se=0.1, m=1, b_reps=10, seed=0)


def test_variance_estimate_is_stable_across_seeds():
    # Under independence at n=2000 the rescaled variance of the raw statistic
    # should concentrate: the spread across bootstrap seeds stays well below
    # half its mean.
    rng = np.random.default_rng(64)
    s = Sample(x=rng.uniform(size=(2000, 2)), y=rng.uniform(size=2000))
    sig = [
        mn_bootstrap(s, PipelineConfig(), "t_hat", b_reps=200, seed=k).sigma2_hat
        for k in range(20)
    ]
    sig = np.asarray(sig)
    assert sig.std() / sig.mean() < 0.5


def test_confidence_interval_normal_quantiles():
    v = VarianceEstimate(sigma2_hat=3.0, se=0.1, m=17, b_reps=200, seed=0)
    lo, hi = confidence_interval(0.5, v, 0.05)
    assert lo == 0.5 - Z975 * 0.1
    assert hi == 0.5 + Z975 * 0.1


def test_confidence_interval_zero_se_degenerates():
    v = VarianceEstimate(sigma2_hat=0.0, se=0.0, m=17, b_reps=200, seed=0)
    assert confidence_interval(0.25, v, 0.05) == (0.25, 0.25)


def test_confidence_interval_width_grows_with_confidence():
    v = VarianceEstimate(sigma2_hat=1.0, se=0.05, m=10, b_reps=50, seed=0)
    widths = []
    for alpha in (0.32, 0.05, 0.01):
        lo, hi = confidence_interval(0.0, v, alpha)
        assert lo == -hi
        widths.append(hi - lo)
    assert widths[0] < widths[1] < widths[2]


def test_confidence_interval_alpha_validation():
    v = VarianceEstimate(sigma2_hat=1.0, se=0.05, m=10, b_reps=50, seed=0)
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InputError):
            confidence_interval(0.0, v, alpha)


def test_bootstrap_tracks_dependence_strength():
    # Dependent data produce a real spread of replicate values, so sigma2 is
    # comfortably positive and the interval has positive width.
    s = _sample(seed=65, n=200)
    point = estimate(s)
    v = mn_bootstrap(s, PipelineConfig(), "t_hat", b_reps=100, seed=9)
    assert v.sigma2_hat > 0.0
    lo, hi = confidence_interval(point.t_hat, v, 0.05)
    assert lo < point.t_hat < hi


# ---------------------------------------------------------------------------
# The batched replicate engine against estimate() run once per subsample
# ---------------------------------------------------------------------------


def _estimate_stat(field):
    return lambda x, y, cfg: getattr(estimate(Sample(x=x, y=y), cfg), field)


@pytest.mark.parametrize(
    "n, m, d, degree, scale, kind",
    [
        (300, 2, 6, 2, True, "plain"),
        (300, 3, 6, 2, True, "plain"),
        (300, 17, 6, 2, True, "plain"),
        (300, 64, 6, 2, True, "plain"),
        # m >= 65 with d <= 15 is where estimate switches to the kd-tree.
        (300, 65, 6, 2, True, "plain"),
        (300, 66, 6, 2, True, "plain"),
        (300, 17, 1, 1, True, "plain"),
        # d = 16 keeps estimate on brute force at every m.
        (300, 66, 16, 1, True, "plain"),
        (300, 17, 6, 0, True, "plain"),
        (300, 17, 6, 3, True, "plain"),
        (300, 17, 6, 2, False, "plain"),
        # Duplicate-heavy draws: 17 out of 20 rows.
        (20, 17, 6, 2, True, "plain"),
        (300, 17, 6, 2, True, "tied_y"),
        # Integer-grid covariates: distinct rows at equal distances, so the
        # smallest-index tie rule decides the neighbours.
        (300, 17, 2, 2, True, "grid_x"),
        (300, 66, 2, 2, True, "grid_x"),
    ],
)
def test_engine_matches_estimate_per_replicate(n, m, d, degree, scale, kind):
    rng = np.random.default_rng(n + 7 * m + d)
    x = rng.uniform(-2.0, 3.0, size=(n, d))
    if kind == "grid_x":
        x = np.floor(x)
    y = x[:, 0] + 0.5 * rng.standard_normal(n)
    if kind == "tied_y":
        y = np.round(y, 1)
    s = Sample(x=x, y=y)
    cfg = PipelineConfig(degree=degree, scale_covariates=scale)
    b_reps = 8 if m == 2 else 20  # m = 2 draws the same row twice at rate 1/n

    t_hat, t_bc = _replicates(s, cfg, _draws(n, m, b_reps, 3), corrected=True)
    for r, idx in enumerate(_draws(n, m, b_reps, 3)):
        want = estimate(Sample(x=x[idx], y=y[idx]), cfg)
        assert t_hat[r] == want.t_hat
        # Relative to the size of the terms t_bc is the difference of: plain
        # relative error is unbounded where t_bc crosses zero.
        scale_tbc = abs(want.t_hat) + abs(want.t_hat - want.t_bc)
        assert abs(t_bc[r] - want.t_bc) <= 1e-12 * scale_tbc

    # The statistic= hook sees the same draws, so the raw variance is equal.
    assert mn_bootstrap(s, cfg, "t_hat", b_reps=b_reps, m=m, seed=3) == mn_bootstrap(
        s, cfg, "t_hat", b_reps=b_reps, m=m, seed=3, statistic=_estimate_stat("t_hat")
    )


def test_binary_response_raises_like_a_replicate_loop():
    rng = np.random.default_rng(66)
    x = rng.uniform(size=(300, 3))
    y = (rng.uniform(size=300) < 0.5).astype(np.float64)
    s = Sample(x=x, y=y)
    with pytest.raises(RuntimeError) as want:
        mn_bootstrap(s, PipelineConfig(), "t_bc", b_reps=50, seed=1,
                     statistic=_estimate_stat("t_bc"))
    with pytest.raises(RuntimeError) as got:
        mn_bootstrap_pair(s, PipelineConfig(), b_reps=50, seed=1)
    assert str(got.value) == str(want.value)
    assert "outside sane range" in str(got.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_first_failing_replicate_decides_the_error():
    # Unscaled x = 1e200 overflows the design matrix of every subsample that
    # draws row 0 (an InputError in the fit), and the half-tied response
    # puts some subsamples outside the sane range (a RuntimeError, raised
    # before the fit). In this draw the first failing replicate is of the
    # first kind and a later one of the second, all in one chunk.
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(40, 2))
    x[0, 0] = 1e200
    y = np.where(rng.uniform(size=40) < 0.5, 0.0, rng.uniform(size=40))
    s = Sample(x=x, y=y)
    cfg = PipelineConfig(scale_covariates=False)
    kw = dict(b_reps=30, m=6, seed=5)
    with pytest.raises(RuntimeError):
        mn_bootstrap(s, cfg, "t_hat", **kw)
    with pytest.raises(NonFiniteInputError) as want:
        mn_bootstrap(s, cfg, "t_bc", statistic=_estimate_stat("t_bc"), **kw)
    with pytest.raises(NonFiniteInputError) as got:
        mn_bootstrap_pair(s, cfg, **kw)
    assert str(got.value) == str(want.value)


def test_cholesky_failure_raises_factorization_error(monkeypatch):
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(scipy.linalg, "solve", fail)
    with pytest.raises(FactorizationError):
        mn_bootstrap_pair(_sample(), PipelineConfig(), b_reps=10, seed=1)


def test_results_do_not_depend_on_chunk_size(monkeypatch):
    for n, d in ((300, 6), (120, 2), (200, 16)):
        rng = np.random.default_rng(n + d)
        x = rng.uniform(size=(n, d))
        s = Sample(x=x, y=x[:, 0] + rng.standard_normal(n))
        results = []
        for budget in (0, 1 << 40):  # one replicate per chunk, then all of them
            monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", budget)
            results.append((
                mn_bootstrap_pair(s, PipelineConfig(), b_reps=60, seed=2),
                mn_bootstrap(s, PipelineConfig(), "t_hat", b_reps=60, seed=2),
            ))
        assert results[0] == results[1]


@pytest.mark.parametrize("n, degree, b_reps", [(3000, 2, 200), (30000, 2, 200), (300, 5, 50)])
def test_bootstrap_memory_stays_small(n, degree, b_reps):
    # One chunk's difference block (m = 54 and 173) or Gram block (K = 462
    # at degree 5) is capped at _CHUNK_BYTES, so the peak stays far below
    # the perfbench peak-RSS budget.
    rng = np.random.default_rng(67)
    x = rng.uniform(size=(n, 6))
    s = Sample(x=x, y=x[:, 0] + rng.standard_normal(n))
    tracemalloc.start()
    try:
        mn_bootstrap_pair(s, PipelineConfig(degree=degree), b_reps=b_reps, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
