"""m-out-of-n bootstrap standard errors and normal-quantile intervals.

Subsamples of size m (default floor(sqrt(n))) are drawn with replacement,
the statistic is recomputed in full on each subsample (including the ridge
refit, whose penalty tracks the subsample size), and the limiting variance
is estimated by m times the bootstrap sample variance. :func:`analyze`, the
entry point, checks every option, then runs
:func:`~nncorr.bias_correction.estimate`, the bootstrap and both intervals
and returns an :class:`Analysis`; the command line's ``estimate`` and every
study replication call it. Its private bootstrap step,
:func:`mn_bootstrap_pair`, returns the root-n standard errors
``(se_t, se_tbc)``. Each replicate owns a counter-derived random stream, so
results do not depend on evaluation order or thread count.

The replicates are computed together. The (B, m) block of index vectors
reproduces every replicate's stream, ``derive_rng(seed, r)``, bit for bit:
the seeds are hashed and the bounded integers drawn for all streams at once,
and only each stream's NumPy ``PCG64`` is built, not its ``Generator`` (see
:func:`nncorr.rng._integers_block`; n is limited to 2**32 - 1). Each chunk
of subsamples runs through the stage function of
:func:`nncorr.bias_correction.estimate` as (chunk, m, .) arrays, so every
replicate's ``t_hat`` and ``t_bc`` are bit-identical to ``estimate`` on the
same subsample. Ranks and ridge right-hand sides come from one stable sort
per subsample. The neighbour search is chosen by m alone
(:func:`nncorr.nn_graph._search_stack`): up to m = 200, which the default m
exceeds only from n = 40 401, the full (m, m) distance matrix, accumulated
one coordinate at a time, at O(B m^2 d) in all; above it a kd-tree per
subsample. The ridge fit of a subsample smaller than the basis (m < K, as at
the default m for n below K^2) solves the m x m dual system, not the K x K
Gram system (:func:`nncorr.ridge_series._ridge_betas`). No block of a
replicate exceeds max(m, K)^2 floats: its distance matrix, its dual matrix,
its (K, m) coefficients or, when m >= K, its (K, K) Gram matrix. Chunks
along the replicate axis keep that bound within a fixed byte budget; the
results do not depend on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .bias_correction import PipelineConfig, _stages, default_lambda, estimate
from .dataset import Sample
from .errors import InputError
from .ridge_series import basis_index_set
from .rng import _check_path, _integers_block

DEFAULT_B_REPS = 200


def default_m(n: int) -> int:
    """Subsample size floor(sqrt(n))."""
    return int(math.isqrt(n))


def _whole(name: str, v) -> int:
    """``v`` as an int, or an InputError unless it is a whole number."""
    if not isinstance(v, int) and not float(v).is_integer():
        raise InputError(f"need a whole number {name}, got {v}")
    return int(v)


def _resolve_m(n: int, m: int | None) -> int:
    m_eff = default_m(n) if m is None else _whole("m", m)
    if m_eff < 2:
        raise InputError(f"need subsample size m >= 2, got {m_eff}")
    if m_eff > n:
        raise InputError(f"subsample size {m_eff} exceeds sample size {n}")
    return m_eff


def _check_b_reps(b_reps: int) -> int:
    b_reps = _whole("b_reps", b_reps)
    if b_reps < 2:
        raise InputError(f"need b_reps >= 2, got {b_reps}")
    return b_reps


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")


def _se(stats: np.ndarray, m: int, n: int) -> float:
    """Root-n standard error sqrt(m * Var(stats) / n) of the replicate values."""
    return math.sqrt(m * float(np.var(stats, ddof=1)) / n)


# Byte budget of one chunk's largest block, at most max(m, K)^2 floats a
# replicate: the (chunk, m, m) squared distances and dual matrices, the
# (chunk, K, m) coefficients, or the (chunk, K, K) Gram matrices of m >= K.
# It bounds memory only: every stage is computed per replicate.
_CHUNK_BYTES = 256 * 1024


def _replicates(
    sample: Sample, config: PipelineConfig, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Replicate values of ``t_hat`` and ``t_bc`` over the index block."""
    b_reps, m = draws.shape
    k = len(basis_index_set(sample.d, config.degree))
    chunk = max(1, _CHUNK_BYTES // (8 * max(m, k) ** 2))
    parts = []
    for lo in range(0, b_reps, chunk):
        block = draws[lo : lo + chunk]
        try:
            parts.append(_stages(sample.x[block], sample.y[block], config))
            continue
        except InputError as exc:
            failure = exc
        # Replay one replicate at a time, so the first failing replicate
        # raises its own first failure, as a loop over replicates would.
        for idx in block:
            _stages(sample.x[idx][None], sample.y[idx][None], config)
        raise failure
    t_hat, _, t_bc = (np.concatenate(v) for v in zip(*parts))
    return t_hat, t_bc


def mn_bootstrap_pair(
    sample: Sample,
    config: PipelineConfig,
    b_reps: int = DEFAULT_B_REPS,
    m: int | None = None,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap standard errors ``(se_t, se_tbc)``, the private step of :func:`analyze`.

    Both come from one set of subsamples, whose draws depend only on
    ``(seed, replicate)``; each replicate's ``t_hat`` and ``t_bc`` are
    bit-identical to ``estimate`` on its subsample. Each standard error is
    sqrt(m * s^2 / n), s^2 the sample variance of the replicate values, so
    n * se^2 estimates the limiting variance of the root-n statistic.
    """
    b_reps = _check_b_reps(b_reps)
    n = sample.n
    m_eff = _resolve_m(n, m)
    t_hat, t_bc = _replicates(sample, config, _integers_block(seed, n, m_eff, b_reps))
    return _se(t_hat, m_eff, n), _se(t_bc, m_eff, n)


def confidence_interval(point: float, se: float, alpha: float) -> tuple[float, float]:
    """Two-sided normal-approximation interval point +- z_{1-alpha/2} * se."""
    _check_alpha(alpha)
    z = float(ndtri(1.0 - alpha / 2.0))
    return (point - z * se, point + z * se)


def _check_run(
    n: int, d: int, config: PipelineConfig, b_reps: int, m: int | None, alpha: float, seed: int
) -> tuple[int, int, int]:
    """Run every check of one analysis before its work; return its ``(b_reps, m, seed)``."""
    b_reps = _check_b_reps(b_reps)
    m_eff = _resolve_m(n, m)
    _check_alpha(alpha)
    seed = _whole("seed", seed)
    _check_path(seed, ())
    basis_index_set(d, config.degree)
    # m <= n, so a penalty that is positive at n is positive in every replicate.
    default_lambda(n, config.lambda_exponent)
    return b_reps, m_eff, seed


@dataclass(frozen=True)
class Analysis:
    """Both estimates, the subsample size m, root-n standard errors and (lo, hi) intervals."""

    t_hat: float
    l_hat: float
    t_bc: float
    m: int
    se_t: float
    se_tbc: float
    ci_t: tuple[float, float]
    ci_tbc: tuple[float, float]


def analyze(
    sample: Sample, config: PipelineConfig | None = None, *, b_reps: int = DEFAULT_B_REPS,
    m: int | None = None, alpha: float = 0.05, seed: int = 0,
) -> Analysis:
    """Check every option, then estimate, bootstrap and build both intervals.

    Every option is checked before any work, with the message the work
    itself would give. ``b_reps``, ``m`` (default floor(sqrt(n))) and
    ``seed`` must be whole numbers: 20.0 runs as 20, 2.7 raises.
    """
    if config is None:
        config = PipelineConfig()
    b_reps, m_eff, seed = _check_run(sample.n, sample.d, config, b_reps, m, alpha, seed)
    res = estimate(sample, config)
    se_t, se_tbc = mn_bootstrap_pair(sample, config, b_reps=b_reps, m=m_eff, seed=seed)
    ci_t = confidence_interval(res.t_hat, se_t, alpha)
    ci_tbc = confidence_interval(res.t_bc, se_tbc, alpha)
    return Analysis(res.t_hat, res.l_hat, res.t_bc, m_eff, se_t, se_tbc, ci_t, ci_tbc)
