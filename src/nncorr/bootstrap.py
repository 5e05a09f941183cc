"""m-out-of-n bootstrap variance estimates and normal-quantile intervals.

Subsamples of size m (default floor(sqrt(n))) are drawn with replacement,
the statistic is recomputed in full on each subsample (including the ridge
refit, whose penalty tracks the subsample size), and the limiting variance
is estimated by m times the bootstrap sample variance. Each replicate owns
a counter-derived random stream, so results do not depend on evaluation
order or thread count.

The replicates are computed together: the B index vectors are stacked into
a (B, m) block and every stage of :func:`nncorr.bias_correction.estimate`
runs on (chunk, m, .) arrays. Ranks come from the (m, m) comparison matrix
of each subsample, which also gives the ridge right-hand sides, and nearest
neighbours from the full (m, m) distance matrix, so the neighbour search
costs O(B m^2 d) in all. Chunks along the replicate axis keep the
(chunk, m, m, d) difference block and the (chunk, K, K) Gram matrices
within a fixed byte budget; the results do not depend on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .bias_correction import PipelineConfig, _bias_rows, default_lambda
from .dataset import Sample, _as_matrix, minmax_scale
from .errors import InputError
from .estimator import _rank_coefficient
from .ridge_series import _ridge_solve, basis_index_set, design_matrix
from .rng import derive_rng

DEFAULT_B_REPS = 200


@dataclass(frozen=True)
class VarianceEstimate:
    """Bootstrap estimate of the limiting variance of a root-n statistic.

    ``sigma2_hat`` targets n * Var(statistic); the usable standard error is
    ``se = sqrt(sigma2_hat / n)`` for the original sample size n.
    """

    sigma2_hat: float
    se: float
    m: int
    b_reps: int
    seed: int

    def __post_init__(self):
        if not self.sigma2_hat >= 0.0:
            raise InputError(f"sigma2_hat must be nonnegative, got {self.sigma2_hat}")
        if not self.se >= 0.0:
            raise InputError(f"se must be nonnegative, got {self.se}")
        if self.m < 2:
            raise InputError(f"need m >= 2, got {self.m}")


def default_m(n: int) -> int:
    """Subsample size floor(sqrt(n))."""
    return int(math.isqrt(n))


def _resolve_m(n: int, m: int | None) -> int:
    m_eff = default_m(n) if m is None else int(m)
    if m_eff < 2:
        raise InputError(f"need subsample size m >= 2, got {m_eff}")
    if m_eff > n:
        raise InputError(f"subsample size {m_eff} exceeds sample size {n}")
    return m_eff


def _variance(stats: np.ndarray, m: int, n: int, b_reps: int, seed: int) -> VarianceEstimate:
    sigma2 = m * float(np.var(stats, ddof=1))
    sigma2 = max(sigma2, 0.0)
    return VarianceEstimate(
        sigma2_hat=sigma2,
        se=math.sqrt(sigma2 / n),
        m=m,
        b_reps=b_reps,
        seed=seed,
    )


def _draws(n: int, m: int, b_reps: int, seed: int) -> np.ndarray:
    """The (b_reps, m) block of subsample indices; row r depends only on (seed, r)."""
    return np.stack([derive_rng(seed, r).integers(0, n, size=m) for r in range(b_reps)])


def _chunk_stats(
    x: np.ndarray, y: np.ndarray, config: PipelineConfig, corrected: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """``t_hat`` and, if ``corrected``, ``t_bc`` of every subsample in a stack.

    ``x`` is (c, m, d) and ``y`` is (c, m). The stages and their checks are
    those of :func:`nncorr.bias_correction.estimate`; ``t_hat`` comes out
    bit-identical to it.
    """
    c, m, d = x.shape
    # le[b, i, j] = 1(y_bj <= y_bi): row sums are the ranks, and P' le holds
    # the ridge right-hand sides P' 1(y >= y_j) of every threshold.
    le = y[:, None, :] <= y[:, :, None]
    ranks = le.sum(axis=-1)
    xs = minmax_scale(x).xs if config.scale_covariates else x

    # The same squared distances as nn_graph's row scan, self excluded by
    # inf; argmin keeps the first minimizer, the smallest-index tie rule.
    diff = xs[:, None, :, :] - xs[:, :, None, :]
    diff *= diff
    d2 = diff.sum(axis=-1)
    del diff
    d2.reshape(c, m * m)[:, :: m + 1] = np.inf
    nn = d2.argmin(axis=-1)
    s = np.minimum(ranks, np.take_along_axis(ranks, nn, axis=-1)).sum(axis=-1)
    t_hat = _rank_coefficient(s, m)
    if not corrected:
        return t_hat, None

    p = design_matrix(xs, basis_index_set(d, config.degree))
    _as_matrix(p, name="design matrix", stacked=True)  # ridge_fit_all's input check
    lam = default_lambda(m, config.lambda_exponent)
    betas = _ridge_solve(p, np.swapaxes(p, -1, -2) @ le, lam)
    rows = _bias_rows(p, betas, nn).tolist()
    l_hat = np.array([math.fsum(r) for r in rows]) / (m * (m - 1))
    t_bc = t_hat - 6.0 * l_hat
    for label, v in (("l_hat", l_hat), ("t_bc", t_bc)):
        bad = ~np.isfinite(v)
        if bad.any():
            raise InputError(f"{label} is not finite: {v[bad][0]}")
    return t_hat, t_bc


# Byte budget of one chunk's largest block: the (chunk, m, m, d) neighbour
# differences or, when the fit runs, the (chunk, K, K) Gram matrices. It
# bounds memory only: every stage is computed per replicate.
_CHUNK_BYTES = 256 * 1024


def _replicates(
    sample: Sample, config: PipelineConfig, draws: np.ndarray, corrected: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Replicate values of ``t_hat`` (and ``t_bc``) over the index block."""
    b_reps, m = draws.shape
    k = math.comb(sample.d + config.degree, config.degree) if corrected else 0
    chunk = max(1, _CHUNK_BYTES // (8 * max(m * m * sample.d, k * k)))
    parts = []
    for lo in range(0, b_reps, chunk):
        block = draws[lo : lo + chunk]
        try:
            parts.append(_chunk_stats(sample.x[block], sample.y[block], config, corrected))
            continue
        except (ValueError, RuntimeError) as exc:
            failure = exc
        # Replay one replicate at a time, so the first failing replicate
        # raises its own first failure, as a loop over replicates would.
        for idx in block:
            _chunk_stats(sample.x[idx][None], sample.y[idx][None], config, corrected)
        raise failure
    t_hat = np.concatenate([t for t, _ in parts])
    t_bc = np.concatenate([t for _, t in parts]) if corrected else None
    return t_hat, t_bc


def mn_bootstrap(
    sample: Sample,
    config: PipelineConfig,
    which: str,
    b_reps: int = DEFAULT_B_REPS,
    m: int | None = None,
    seed: int = 0,
    statistic=None,
) -> VarianceEstimate:
    """Bootstrap variance of the raw ("t_hat") or corrected ("t_bc") statistic.

    ``statistic`` may override the estimator with any callable
    ``(x, y, config) -> float``, evaluated once per subsample; the
    subsample draws depend only on ``(seed, replicate)``, never on which
    statistic is evaluated.
    """
    if which not in ("t_hat", "t_bc"):
        raise InputError(f"unknown statistic selector {which!r}; use 't_hat' or 't_bc'")
    if b_reps < 2:
        raise InputError(f"need b_reps >= 2, got {b_reps}")
    n = sample.n
    m_eff = _resolve_m(n, m)
    draws = _draws(n, m_eff, b_reps, seed)

    if statistic is None:
        t_hat, t_bc = _replicates(sample, config, draws, corrected=(which == "t_bc"))
        stats = t_hat if which == "t_hat" else t_bc
    else:
        stats = np.array(
            [statistic(sample.x[idx], sample.y[idx], config) for idx in draws],
            dtype=np.float64,
        )
    return _variance(stats, m_eff, n, b_reps, seed)


def mn_bootstrap_pair(
    sample: Sample,
    config: PipelineConfig,
    b_reps: int = DEFAULT_B_REPS,
    m: int | None = None,
    seed: int = 0,
) -> tuple[VarianceEstimate, VarianceEstimate]:
    """Variances of both statistics from one shared set of subsamples.

    Each replicate records both the raw and the corrected value. Because the
    draws depend only on (seed, replicate), the two results match what two
    separate :func:`mn_bootstrap` calls with the same seed would produce,
    at roughly the cost of the corrected one alone.
    """
    if b_reps < 2:
        raise InputError(f"need b_reps >= 2, got {b_reps}")
    n = sample.n
    m_eff = _resolve_m(n, m)
    t_hat, t_bc = _replicates(sample, config, _draws(n, m_eff, b_reps, seed), corrected=True)
    return (
        _variance(t_hat, m_eff, n, b_reps, seed),
        _variance(t_bc, m_eff, n, b_reps, seed),
    )


def confidence_interval(point: float, v: VarianceEstimate, alpha: float) -> tuple[float, float]:
    """Two-sided normal-approximation interval point +- z_{1-alpha/2} * se."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    z = float(ndtri(1.0 - alpha / 2.0))
    return (point - z * v.se, point + z * v.se)
