"""Tests for m-out-of-n bootstrap standard errors and intervals."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from nncorr import bootstrap
from nncorr.bias_correction import PipelineConfig, estimate
from nncorr.bootstrap import Analysis, _replicates, _se, analyze
from nncorr.dataset import Sample
from nncorr.errors import InputError
from nncorr.rng import _integers_block, derive_rng, derive_seed

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below is skipped without it
    given = None

Z975 = 1.9599639845400543  # standard normal quantile at 0.975


def _sample(seed=61, n=120, d=2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    y = x[:, 0] + 0.5 * rng.standard_normal(n)
    return Sample(x=x, y=y)


def _loop_bootstrap(sample, config, statistic, b_reps, m=None, seed=0):
    # The oracle of the replicate engine: ``statistic(x, y, config)`` on each
    # subsample of the same draws, one at a time; a failing replicate is
    # named as the engine names it.
    m_eff = math.isqrt(sample.n) if m is None else m
    stats = []
    for r, idx in enumerate(_integers_block(seed, sample.n, m_eff, b_reps)):
        try:
            stats.append(statistic(sample.x[idx], sample.y[idx], config))
        except InputError as exc:
            raise InputError(f"bootstrap replicate {r} of {b_reps} (m = {m_eff}): {exc}") from exc
    return _se(np.array(stats, dtype=np.float64), m_eff, sample.n)


def _engine_se(sample, config, b_reps, m=None, seed=0):
    # The engine alone, without the full-sample estimate: both standard
    # errors from ``_replicates`` on the index block.
    m_eff = math.isqrt(sample.n) if m is None else m
    draws = _integers_block(seed, sample.n, m_eff, b_reps)
    return tuple(_se(v, m_eff, sample.n) for v in _replicates(sample, config, draws))


def _estimate_stat(field):
    return lambda x, y, cfg: getattr(estimate(Sample(x=x, y=y), cfg), field)


def _draws_loop(n, m, b_reps, seed):
    # One generator per replicate: the oracle of the vectorized draws.
    return np.stack([derive_rng(seed, r).integers(0, n, size=m) for r in range(b_reps)])


def _assert_same_draws(n, m, b_reps, seed):
    got, want = _integers_block(seed, n, m, b_reps), _draws_loop(n, m, b_reps, seed)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


# n = 2**31 + 1 rejects about half of the 32-bit candidates, n = 2**32 - 1
# is the largest n drawn by the 32-bit method.
@pytest.mark.parametrize("n", [2, 17, 300, 3000, 2**31 + 1, 2**32 - 1])
@pytest.mark.parametrize("seed", [0, 3, 2**32, 2**63 + 5, 2**64 - 1])
def test_draws_match_per_replicate_generators(n, seed):
    for b_reps, m in ((2, 2), (200, 17), (1000, 54)):
        _assert_same_draws(n, m, b_reps, seed)


def test_draws_rows_do_not_depend_on_b_reps():
    np.testing.assert_array_equal(
        _integers_block(7, 300, 17, 10), _integers_block(7, 300, 17, 50)[:10]
    )
    np.testing.assert_array_equal(
        _integers_block(7, 2**31 + 1, 17, 10), _integers_block(7, 2**31 + 1, 17, 50)[:10]
    )


def test_draws_reject_a_negative_seed_like_derive_rng():
    with pytest.raises(InputError) as want:
        derive_rng(-1, 0)
    with pytest.raises(InputError) as got:
        _integers_block(-1, 300, 17, 10)
    assert str(got.value) == str(want.value) == "seed path entries must be non-negative, got -1"


def test_draws_name_the_row_limit():
    with pytest.raises(InputError, match=r"at most 4294967295 rows"):
        _integers_block(0, 2**32, 17, 10)


if given is not None:

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        st.one_of(st.integers(2, 400), st.integers(2, 2**32 - 1)),
        st.integers(1, 60),
        st.integers(1, 40),
        st.one_of(st.integers(0, 2**32), st.integers(0, 2**64 - 1), st.integers(0, 2**130)),
    )
    def test_draws_match_per_replicate_generators_drawn(n, m, b_reps, seed):
        _assert_same_draws(n, m, b_reps, seed)

else:

    @pytest.mark.skip(reason="needs hypothesis")
    def test_draws_match_per_replicate_generators_drawn():
        pass


def test_default_m_is_root_n():
    # Seed 1's two n = 4 replicates each draw two distinct rows.
    for n, m in ((4, 2), (99, 9), (300, 17), (2000, 44)):
        assert analyze(_sample(n=n), b_reps=2, seed=1).m == m == math.isqrt(n)


def test_constant_statistic_has_zero_variance():
    calls = []

    def constant(x, y, cfg):
        calls.append(x.shape[0])
        return 0.42

    s = _sample()
    se = _loop_bootstrap(s, PipelineConfig(), constant, b_reps=25, seed=1)
    assert se == 0.0
    assert calls == [math.isqrt(s.n)] * 25


def test_bootstrap_is_deterministic():
    s = _sample()
    a = analyze(s, b_reps=40, seed=7)
    assert _bits(analyze(s, b_reps=40, seed=7)) == _bits(a)
    c = analyze(s, b_reps=40, seed=8)
    assert c.se_t != a.se_t


def test_subsample_draws_do_not_depend_on_statistic_choice():
    # The same seed must feed identical subsamples whatever the correction
    # does, so t_hat, which ignores the ridge fit, sees no difference.
    s = _sample()
    a = analyze(s, PipelineConfig(degree=2), b_reps=30, seed=5)
    b = analyze(s, PipelineConfig(degree=0, lambda_exponent=0.5), b_reps=30, seed=5)
    assert a.se_t == b.se_t


def test_pair_matches_separate_runs():
    s = _sample(seed=62, n=150)
    cfg = PipelineConfig()
    got = analyze(s, cfg, b_reps=35, seed=11)
    assert got.se_t == _loop_bootstrap(s, cfg, _estimate_stat("t_hat"), b_reps=35, seed=11)
    assert got.se_tbc == _loop_bootstrap(s, cfg, _estimate_stat("t_bc"), b_reps=35, seed=11)


def test_explicit_m_is_respected():
    s = _sample()
    cfg = PipelineConfig()
    t_hat = _estimate_stat("t_hat")
    explicit = analyze(s, cfg, b_reps=20, m=25, seed=2)
    assert explicit.m == 25
    assert explicit.se_t == _loop_bootstrap(s, cfg, t_hat, b_reps=20, m=25, seed=2)
    default = analyze(s, cfg, b_reps=20, seed=2)
    assert default.m == 10
    assert default.se_t == _loop_bootstrap(s, cfg, t_hat, b_reps=20, m=10, seed=2)
    assert default.se_t != explicit.se_t


def test_sigma2_scales_variance_by_m():
    # n * se^2 = m * Var(replicates); a scripted two-point statistic pins
    # the arithmetic exactly.
    s = _sample(seed=63, n=100)
    vals = iter([0.0, 1.0] * 10)
    se = _loop_bootstrap(s, PipelineConfig(), lambda x, y, cfg: next(vals), b_reps=20, m=16, seed=4)
    expected = 16 * np.var([0.0, 1.0] * 10, ddof=1)
    assert abs(s.n * se**2 - expected) < 1e-12
    assert abs(se - np.sqrt(expected / 100)) < 1e-15


def _forbid_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the analysis ran before the options were checked")

    monkeypatch.setattr(bootstrap, "estimate", forbidden)
    monkeypatch.setattr(bootstrap, "_integers_block", forbidden)


def _assert_refused(options, message):
    with pytest.raises(InputError) as exc:
        analyze(_sample(), **options)
    assert str(exc.value) == message


def test_bootstrap_argument_validation(monkeypatch):
    # Checked in the order b_reps, m, alpha, seed, before any work.
    _forbid_work(monkeypatch)
    for options, message in (
        ({"b_reps": 1}, "need b_reps >= 2, got 1"),
        ({"m": 1}, "need subsample size m >= 2, got 1"),
        ({"m": 121}, "subsample size 121 exceeds sample size 120"),
        ({"b_reps": 1, "m": 1, "alpha": 2.0}, "need b_reps >= 2, got 1"),
        ({"m": 1, "alpha": 2.0, "seed": -1}, "need subsample size m >= 2, got 1"),
        ({"alpha": 2.0, "seed": -1}, "alpha must lie strictly between 0 and 1, got 2.0"),
    ):
        _assert_refused(options, message)


def test_variance_estimate_is_stable_across_seeds():
    # Under independence at n=2000 the rescaled variance of the raw statistic
    # should concentrate: the spread across bootstrap seeds stays well below
    # half its mean.
    rng = np.random.default_rng(64)
    s = Sample(x=rng.uniform(size=(2000, 2)), y=rng.uniform(size=2000))
    sig = [
        s.n * analyze(s, b_reps=200, seed=k).se_t ** 2
        for k in range(20)
    ]
    sig = np.asarray(sig)
    assert sig.std() / sig.mean() < 0.5


def test_confidence_interval_normal_quantiles():
    # Each interval is the estimate +- ndtri(1 - alpha/2) * se, bit for bit.
    for alpha in (0.05, 0.1, 0.32, 0.01):
        a = analyze(_sample(), b_reps=30, alpha=alpha, seed=4)
        z = float(ndtri(1.0 - alpha / 2.0))
        assert alpha != 0.05 or abs(z - Z975) < 1e-15
        assert a.ci_t == (a.t_hat - z * a.se_t, a.t_hat + z * a.se_t)
        assert a.ci_tbc == (a.t_bc - z * a.se_tbc, a.t_bc + z * a.se_tbc)


def test_confidence_interval_zero_se_degenerates():
    # Every m = 2 subsample of two distinct rows has the same t_hat; seed
    # 1's three replicates each draw two distinct rows.
    a = analyze(_sample(n=2), m=2, b_reps=3, seed=1)
    assert a.se_t == 0.0
    assert a.ci_t == (a.t_hat, a.t_hat)


def test_confidence_interval_width_grows_with_confidence():
    widths = []
    for alpha in (0.32, 0.05, 0.01):
        lo, hi = analyze(_sample(), b_reps=30, alpha=alpha, seed=4).ci_t
        widths.append(hi - lo)
    assert widths[0] < widths[1] < widths[2]


def test_confidence_interval_alpha_validation(monkeypatch):
    _forbid_work(monkeypatch)
    for alpha in (0.0, 1.0, -0.5, 2.0, float("nan")):
        _assert_refused({"alpha": alpha}, f"alpha must lie strictly between 0 and 1, got {alpha}")
    # Anything but a real number is refused as such, not compared.
    for alpha in ("0.1", None, [0.1], 0.1j):
        _assert_refused({"alpha": alpha}, f"need a number alpha, got {alpha!r}")


def _bits(a):
    floats = (a.t_hat, a.l_hat, a.t_bc, a.se_t, a.se_tbc, *a.ci_t, *a.ci_tbc)
    return a.m, [float.hex(v) for v in floats]


@pytest.mark.parametrize("n, m, b_reps, seed", [
    (2, 2, 3, 1), (3, 2, 3, 0), (17, None, 20, 0), (300, None, 50, 6),
], ids=["n2", "n3", "n17", "n300"])
def test_analyze_is_its_steps_bit_for_bit(n, m, b_reps, seed):
    # One call, the same bits as estimate, the index block, the replicates,
    # sqrt(m * var / n) and both intervals chained by hand; m defaults to
    # floor(sqrt(n)).
    s = _sample(n=n)
    cfg = PipelineConfig()
    got = analyze(s, cfg, b_reps=b_reps, m=m, alpha=0.1, seed=seed)
    res = estimate(s, cfg)
    m = math.isqrt(n) if m is None else m
    t_hat, t_bc = _replicates(s, cfg, _integers_block(seed, n, m, b_reps))
    se_t, se_tbc = (math.sqrt(m * float(np.var(v, ddof=1)) / n) for v in (t_hat, t_bc))
    z = float(ndtri(0.95))
    want = Analysis(
        res.t_hat, res.l_hat, res.t_bc, m, se_t, se_tbc,
        (res.t_hat - z * se_t, res.t_hat + z * se_t),
        (res.t_bc - z * se_tbc, res.t_bc + z * se_tbc),
    )
    assert _bits(got) == _bits(want)
    assert analyze(s, b_reps=b_reps, m=m, alpha=0.1, seed=seed) == got  # config defaults


def test_analysis_is_frozen():
    a = analyze(_sample(n=40), b_reps=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.t_bc = 0.0


@pytest.mark.parametrize("option, whole, as_int", [
    ("b_reps", 20.0, 20), ("m", 9.0, 9), ("seed", 3.0, 3), ("seed", np.int64(3), 3),
], ids=["b_reps", "m", "seed", "seed_int64"])
def test_analyze_runs_a_whole_float_as_its_int(option, whole, as_int):
    s = _sample()
    options = {"b_reps": 20, "m": 9, "seed": 3}
    got = analyze(s, **{**options, option: whole})
    assert got == analyze(s, **{**options, option: as_int})
    assert type(got.m) is int


# Strings, None and other non-numbers are refused too, not parsed or
# truncated; each is shown by its repr, which for a Python float is its str.
@pytest.mark.parametrize("option, value", [
    ("b_reps", 2.5), ("m", 2.7), ("seed", 1.5), ("m", float("nan")), ("b_reps", float("inf")),
    ("b_reps", "20"), ("m", "2.0"), ("seed", None), ("seed", "3"), ("b_reps", [20]),
    ("m", complex(2, 0)),
], ids=["b_reps", "m", "seed", "m_nan", "b_reps_inf",
        "b_reps_str", "m_str", "seed_none", "seed_str", "b_reps_list", "m_complex"])
def test_analyze_refuses_a_fractional_count_before_any_work(monkeypatch, option, value):
    _forbid_work(monkeypatch)
    with pytest.raises(InputError) as exc:
        analyze(_sample(), **{option: value})
    assert str(exc.value) == f"need a whole number {option}, got {value!r}"


@pytest.mark.parametrize("seed, path, message", [
    (2.9, (), "need a whole number seed, got 2.9"),
    (1.5, (0,), "need a whole number seed, got 1.5"),
    (None, (), "need a whole number seed, got None"),
    (2, (1.5,), "need a whole number seed path entry, got 1.5"),
    (2, ("1",), "need a whole number seed path entry, got '1'"),
    (2, (0, -1), "seed path entries must be non-negative, got -1"),
], ids=["seed_frac", "seed_frac_with_path", "seed_none", "path_frac", "path_str", "path_neg"])
def test_streams_refuse_a_seed_path_that_is_not_whole(seed, path, message):
    for derive in (derive_rng, derive_seed):
        with pytest.raises(InputError) as exc:
            derive(seed, *path)
        assert str(exc.value) == message


def test_streams_run_a_whole_float_seed_as_its_int():
    assert derive_seed(3.0, 1.0) == derive_seed(3, 1) == derive_seed(np.int64(3), np.uint8(1))
    np.testing.assert_array_equal(
        _integers_block(np.float64(7.0), 300, 17, 5), _integers_block(7, 300, 17, 5)
    )
    assert derive_seed(10**400, 1) != derive_seed(0, 1)


def test_analyze_keeps_a_seed_beyond_the_float_range():
    # A Python int seed is taken as it is, never through a float.
    s = _sample(n=40)
    assert analyze(s, b_reps=5, seed=10**400).se_t != analyze(s, b_reps=5, seed=0).se_t


def test_bootstrap_tracks_dependence_strength():
    # Dependent data produce a real spread of replicate values, so the
    # standard error is comfortably positive and the interval has positive
    # width.
    s = _sample(seed=65, n=200)
    a = analyze(s, b_reps=100, seed=9)
    assert a.se_t > 0.0
    lo, hi = a.ci_t
    assert lo < a.t_hat < hi


# ---------------------------------------------------------------------------
# The batched replicate engine against estimate() run once per subsample
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, m, d, degree, scale, kind",
    [
        (300, 2, 6, 2, True, "plain"),
        (300, 3, 6, 2, True, "plain"),
        (300, 17, 6, 2, True, "plain"),
        (300, 64, 6, 2, True, "plain"),
        # estimate searches neighbours with the kd-tree and the engine with
        # the stacked distance matrix, at every m and d.
        (300, 65, 6, 2, True, "plain"),
        (300, 66, 6, 2, True, "plain"),
        (300, 17, 1, 1, True, "plain"),
        (300, 66, 16, 1, True, "plain"),
        (300, 17, 6, 0, True, "plain"),
        (300, 17, 6, 3, True, "plain"),
        # K = 45 > m = 17: estimate on the subsample and the chunk both fit
        # through the dual m x m system.
        (300, 17, 8, 2, True, "plain"),
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

    t_hat, t_bc = _replicates(s, cfg, _integers_block(3, n, m, b_reps))
    for r, idx in enumerate(_integers_block(3, n, m, b_reps)):
        want = estimate(Sample(x=x[idx], y=y[idx]), cfg)
        assert t_hat[r] == want.t_hat
        assert t_bc[r] == want.t_bc

    # The loop over estimate() sees the same draws, so both standard errors
    # are equal.
    a = analyze(s, cfg, b_reps=b_reps, m=m, seed=3)
    assert (a.se_t, a.se_tbc) == tuple(
        _loop_bootstrap(s, cfg, _estimate_stat(f), b_reps=b_reps, m=m, seed=3)
        for f in ("t_hat", "t_bc")
    )


def test_binary_response_raises_like_a_replicate_loop():
    rng = np.random.default_rng(66)
    x = rng.uniform(size=(300, 3))
    y = (rng.uniform(size=300) < 0.5).astype(np.float64)
    s = Sample(x=x, y=y)
    with pytest.raises(InputError) as want:
        _loop_bootstrap(s, PipelineConfig(), _estimate_stat("t_bc"), b_reps=50, seed=1)
    with pytest.raises(InputError) as got:
        _engine_se(s, PipelineConfig(), b_reps=50, seed=1)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("bootstrap replicate 3 of 50 (m = 17): coefficient ")
    assert "outside sane range" in str(got.value)


def test_first_failing_replicate_decides_the_error():
    # Unscaled x = 1e200 makes the squared distances of every subsample
    # that draws row 0 overflow (an InputError in the neighbour search),
    # and the half-tied response puts some subsamples outside the sane
    # range (an InputError, raised after the search). In this draw the
    # first failing replicate is of the first kind and a later one of the
    # second, all in one chunk.
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(40, 2))
    x[0, 0] = 1e200
    y = np.where(rng.uniform(size=40) < 0.5, 0.0, rng.uniform(size=40))
    s = Sample(x=x, y=y)
    cfg = PipelineConfig(scale_covariates=False)
    kw = dict(b_reps=30, m=6, seed=5)
    with pytest.raises(InputError, match="squared distances overflow") as want:
        _loop_bootstrap(s, cfg, _estimate_stat("t_bc"), **kw)
    with pytest.raises(InputError) as got:
        _engine_se(s, cfg, **kw)
    assert str(got.value) == str(want.value)


def test_overflowing_distances_raise_in_every_replicate_engine():
    # Unscaled rows 1e200 apart: squared distances overflow, and without the
    # range check each row would be its own nearest neighbour.
    x = np.arange(5.0)[:, None] * 1e200
    s = Sample(x=x, y=np.arange(5.0))
    cfg = PipelineConfig(degree=0, scale_covariates=False)
    with pytest.raises(InputError, match="squared distances overflow"):
        _loop_bootstrap(s, cfg, _estimate_stat("t_bc"), b_reps=10, m=3, seed=0)
    with pytest.raises(InputError, match="squared distances overflow"):
        _engine_se(s, cfg, b_reps=10, m=3, seed=0)


def test_overflowing_gram_matrix_raises_in_estimate_and_engine():
    # Unscaled x = k * 1e100: squared distances and the design matrix are
    # finite, but the degree-2 Gram entries (~x^4) overflow. At d = 1 (K = 3)
    # estimate (n = 20) and the m = 4 replicates solve the primal system; at
    # d = 6 (K = 28) both solve the dual one.
    wide = np.random.default_rng(6).uniform(1.0, 20.0, size=(20, 6)) * 1e100
    for x in (np.arange(1.0, 21.0)[:, None] * 1e100, wide):
        s = Sample(x=x, y=np.random.default_rng(0).standard_normal(20))
        cfg = PipelineConfig(scale_covariates=False)
        with pytest.raises(InputError, match="Gram matrix overflows"):
            estimate(s, cfg)
        first = r"^bootstrap replicate 0 of 10 \(m = 4\): .*Gram matrix overflows"
        with pytest.raises(InputError, match=first):
            _engine_se(s, cfg, b_reps=10, seed=0)


def test_cholesky_failure_raises_factorization_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", fail)
    # m = 10 replicates: at d = 2 (K = 6) the primal system is inverted, at
    # d = 6 (K = 28) the dual one.
    for d in (2, 6):
        with pytest.raises(InputError, match=r"^bootstrap replicate 0 of 10 \(m = 10\): "
                           "the ridge matrix could not be inverted: Singular matrix;"):
            _engine_se(_sample(d=d), PipelineConfig(), b_reps=10, seed=1)


def test_results_do_not_depend_on_chunk_size(monkeypatch):
    # One replicate per chunk, the default budget, then all of them at once.
    budgets = (0, bootstrap._CHUNK_BYTES, 1 << 40)
    for n, d in ((300, 6), (120, 2), (200, 16), (3000, 6), (3000, 12)):
        rng = np.random.default_rng(n + d)
        x = rng.uniform(size=(n, d))
        s = Sample(x=x, y=x[:, 0] + rng.standard_normal(n))
        results = []
        for budget in budgets:
            monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", budget)
            draws = _integers_block(2, n, math.isqrt(n), 60)
            results.append(_replicates(s, PipelineConfig(), draws))
        for t_hat, t_bc in results[1:]:
            np.testing.assert_array_equal(t_hat, results[0][0])
            np.testing.assert_array_equal(t_bc, results[0][1])


def test_chunks_are_sized_by_the_distance_matrix(monkeypatch):
    # At m = 54 and K = 28 a replicate's largest block is 54^2 floats, so
    # the default budget holds 11 replicates a chunk, not one.
    calls = []
    stages = bootstrap._stages

    def counting(x, y, config):
        calls.append(x.shape[0])
        return stages(x, y, config)

    monkeypatch.setattr(bootstrap, "_stages", counting)
    rng = np.random.default_rng(68)
    x = rng.uniform(size=(3000, 6))
    s = Sample(x=x, y=x[:, 0] + rng.standard_normal(3000))
    _engine_se(s, PipelineConfig(degree=2), b_reps=200, seed=1)
    assert sum(calls) == 200
    assert len(calls) <= 20


@pytest.mark.parametrize("n, degree, b_reps", [(3000, 2, 200), (30000, 2, 200), (300, 5, 50)])
def test_bootstrap_memory_stays_small(n, degree, b_reps):
    # One chunk's (chunk, m, m) distance matrices (m = 54 and 173) or Gram
    # block (K = 462 at degree 5) is capped at _CHUNK_BYTES, so the peak
    # stays far below the perfbench peak-RSS budget.
    rng = np.random.default_rng(67)
    x = rng.uniform(size=(n, 6))
    s = Sample(x=x, y=x[:, 0] + rng.standard_normal(n))
    tracemalloc.start()
    try:
        _engine_se(s, PipelineConfig(degree=degree), b_reps=b_reps, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
