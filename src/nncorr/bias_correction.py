"""The neighbor rank statistic, its plug-in bias estimate, and the pipeline.

The raw statistic comes from the response ranks along the nearest-neighbor
graph. It carries a first-order bias driven by how often the conditional
survival curves at a point and at its nearest neighbor disagree. That
quantity is estimated by an average of survival-probability products over
all ordered pairs, with the survival curves themselves fitted by
:mod:`nncorr.ridge_series`. Subtracting six times the estimate gives the
corrected statistic. When the sample is at least as large as the basis,
the estimate is read from blocks of design rows built from the covariates
as they are needed, so its memory is O(n d + block K), with no n x K
design matrix. Every stage takes a stack of samples; :func:`_stages`
runs them for :func:`estimate` and for each bootstrap chunk. The stages
trust what :class:`~nncorr.dataset.Sample` has checked, finite real
entries; the further checks on the covariates, that neither their squared
distances nor their monomials overflow, run in :func:`_stages` and only
on unscaled ones. The raw statistic alone is
``estimate(sample, PipelineConfig(degree=0)).t_hat``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Sample, _tie_groups, minmax_scale
from .errors import InputError
from .nn_graph import _check_range, _search_stack
from .ridge_series import (
    _CHUNK_BYTES,
    _block_rows,
    _descending,
    _design_rows,
    _dual_solve,
    _threshold_betas,
    basis_index_set,
    design_matrix,
)
from .rng import _number, _whole

DEFAULT_DEGREE = 2
# Exponent c in the penalty lambda = n**-c. Small c over-shrinks the fitted
# survival curves and leaves most of the bias in place; c near 2 makes the
# bootstrap refits (subsample size below the basis size) approach
# interpolation, which under-disperses the resampled statistic and breaks
# interval calibration. c = 1.2 balances the two; both failure modes are
# exercised by the acceptance suite.
DEFAULT_LAMBDA_EXPONENT = 1.2


def default_lambda(n: int, exponent: float = DEFAULT_LAMBDA_EXPONENT) -> float:
    """Sample-size driven ridge penalty n**-exponent, positive or an InputError."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if not _number("penalty exponent", exponent) > 0.0:
        raise InputError(f"penalty exponent must be positive, got {exponent}")
    lam = float(n) ** -exponent
    if lam == 0.0:
        raise InputError(
            f"penalty exponent {exponent} makes the ridge penalty n**-{exponent} "
            f"underflow to 0 at n = {n}; use a smaller exponent"
        )
    return lam


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs for the full estimation pipeline.

    The ridge penalty is always derived from the fitted sample size as
    n**-lambda_exponent, so refits on subsamples shrink their penalty
    accordingly. ``scale_covariates`` applies min-max rescaling before both
    the neighbor search and the polynomial basis. Fitted survival values are
    never clamped into [0, 1]: the raw linear estimator is the analyzed one.
    ``degree`` must be a whole number (2.0 is stored as 2) and
    ``lambda_exponent`` a number; anything else raises an InputError.
    """

    degree: int = DEFAULT_DEGREE
    lambda_exponent: float = DEFAULT_LAMBDA_EXPONENT
    scale_covariates: bool = True

    def __post_init__(self):
        object.__setattr__(self, "degree", _whole("degree", self.degree))
        if self.degree < 0:
            raise InputError(f"degree must be nonnegative, got {self.degree}")
        if not _number("lambda_exponent", self.lambda_exponent) > 0.0:
            raise InputError(
                f"lambda_exponent must be positive, got {self.lambda_exponent}"
            )


@dataclass(frozen=True)
class EstimateResult:
    """Point estimates from one run of the pipeline.

    The pipeline is deterministic and bootstrap-free; intervals come from
    :mod:`nncorr.bootstrap`. :func:`estimate` raises before it builds a
    result with a non-finite value.
    """

    t_hat: float
    l_hat: float
    t_bc: float


def _rank_coefficient(ranks: np.ndarray, nn: np.ndarray) -> np.ndarray:
    """Raw coefficient of every sample in a stack: (c, n) ranks and nn give (c,).

    Per sample, 6/(n^2-1) * sum_i min(r_i, r_nn(i)) - (2n+1)/(n-1). The sum
    of rank minima is exact in int64 and divided once, so the result
    carries a single rounding step per term of the formula. Finite-sample
    values below 0 are legitimate (n = 2 always yields -1 on distinct
    responses), so nothing is clamped. Distinct responses keep it within
    [-(2n-1)/(n+1), 1], so only ties can leave the sane range [-3, 1.5];
    the first value outside it raises an :class:`InputError`.
    """
    c, n = ranks.shape
    r_nn = ranks.ravel()[nn + n * np.arange(c)[:, None]]
    s = np.minimum(ranks, r_nn, out=r_nn).sum(axis=-1, dtype=np.int64)
    value = (6 * s) / (n * n - 1) - (2 * n + 1) / (n - 1)
    bad = ~np.isfinite(value) | (value > 1.5) | (value < -3.0)
    if bad.any():
        raise InputError(
            f"coefficient {float(value[bad].flat[0])} outside sane range; the response "
            "is too heavily tied for the rank formula, which assumes distinct values"
        )
    return value


def _neighbor_diff(a: np.ndarray, nn: np.ndarray) -> np.ndarray:
    """Row differences ``a[nn[i]] - a[i]`` of every sample of a (c, n, w) stack.

    The neighbor rows are gathered through a flat (c * n, w) view, then the
    rows themselves subtracted in place, so only one temporary exists.
    """
    c, n, w = a.shape
    d = a.reshape(c * n, w)[(nn + n * np.arange(c)[:, None]).ravel()].reshape(c, n, w)
    d -= a
    return d


def _pair_mean(rows: np.ndarray) -> np.ndarray:
    """Each sample's (c, n) row terms combined with ``math.fsum``, over n*(n-1) pairs.

    ``fsum`` rounds the exact sum once, whatever the order of its terms.
    So a sample longer than :data:`_CHUNK_BYTES` of Python floats (about
    32 bytes each in a list) feeds it chunks of that size rather than one
    n-long list; shorter ones, such as the bootstrap's stacks, are
    converted in one call.
    """
    n = rows.shape[-1]
    step = max(1, _CHUNK_BYTES // 32)
    if n <= step:
        terms = rows.tolist()
    else:
        terms = (
            itertools.chain.from_iterable(r[lo : lo + step].tolist() for lo in range(0, n, step))
            for r in rows
        )
    return np.array([math.fsum(t) for t in terms]) / (n * (n - 1))


def _l_hat(xd: np.ndarray, degree: int | None, nn: np.ndarray, blocks) -> np.ndarray:
    """Average pair discrepancy of the fitted curves g = P @ betas, per sample.

    P is ``_design_rows(xd, degree)`` of the (c, n, .) rows ``xd``, and
    ``nn`` the (c, n) neighbor positions in the same row order. ``blocks``
    gives the rest in consecutive blocks of rows, as
    :func:`nncorr.ridge_series._threshold_betas` yields them: ``(lo, hi,
    pb, betas)`` with ``pb`` the design rows ``lo:hi`` and ``betas`` the
    (c, K, hi - lo) coefficients of the thresholds at those rows, every row
    once. Returns, shape (c,), ``sum_{i != j} g[i,j] * (g[nn[i],j] -
    g[i,j]) / (n*(n-1))`` without forming the n x n matrix g. Since g has
    rank K, row i of the sum is ``p_i M d_i' - g[i,i] * (d_i @ betas[:,
    i])`` with ``M = betas @ betas.T`` and ``d_i = p_nn(i) - p_i``; the
    second part removes the j = i term exactly. M and the second part are
    accumulated block by block; the first part follows the last block,
    whose rows are at hand, with the rows of every earlier block built
    again. The neighbor rows ``p_nn(i)`` are built from the gathered rows
    of ``xd``, so no (n, K) array exists. The differences d are formed
    before any product, so rows whose fitted curves agree contribute
    exactly zero. Each sample's n row terms are combined with
    ``math.fsum``. O(n K^2) time and O(block K) memory beyond ``xd``;
    :func:`_bias_term` takes this form when n >= K.
    """
    c, n, w = xd.shape
    # Neighbor rows are gathered through a flat (c * n, .) view by flat indices.
    flat = xd.reshape(c * n, w)
    nn_flat = nn + n * np.arange(c)[:, None]

    def diff(lo, hi, pb):
        d = _design_rows(np.take(flat, nn_flat[:, lo:hi], axis=0), degree)
        d -= pb
        return d

    m = None
    terms = np.empty((c, n))  # g[i,i] * (d_i @ betas[:, i]) until the row pass
    seen = []
    for lo, hi, pb, betas in blocks:
        seen.append((lo, hi))
        dj = diff(lo, hi, pb)
        if m is None:
            m = np.zeros((c, betas.shape[-2], betas.shape[-2]))
        # einsum sums every entry of M in the same order, so equal rows of
        # betas give bit-equal entries and curves that agree cancel exactly;
        # BLAS (syrk or gemm) rounds edge and diagonal blocks differently.
        m += np.einsum("...kj,...lj->...kl", betas, betas)
        g_jj = np.einsum("...ik,...ki->...i", pb, betas)
        terms[:, lo:hi] = g_jj * np.einsum("...ik,...ki->...i", dj, betas)
    # The rows of p M d' in the same blocks, the last block's rows at hand.
    for lo, hi in reversed(seen):
        if (lo, hi) != seen[-1]:
            pb = _design_rows(xd[:, lo:hi], degree)
            dj = diff(lo, hi, pb)
        terms[:, lo:hi] = np.einsum("...ik,...ik->...i", pb, dj @ m) - terms[:, lo:hi]
    return _pair_mean(terms)


def _primal_l_hat(
    xs: np.ndarray, degree: int | None, order: np.ndarray, first: np.ndarray, lam: float,
    nn: np.ndarray, block: int,
) -> np.ndarray:
    """``l_hat`` of a (c, m, d) stack from the primal K x K system, in blocks of rows.

    ``order`` and ``first`` are those of :func:`nncorr.dataset._tie_groups`,
    ``nn`` the (c, m) neighbor indices. The covariates are gathered once
    into descending response order, where the running sums of the
    right-hand sides run along the rows, and the neighbor indices mapped
    into that order; :func:`nncorr.ridge_series._threshold_betas` and
    :func:`_l_hat` then build the design rows of each block of ``block``
    rows as they need them. When one block holds every row, its design
    rows are built once and serve every pass.
    """
    c, m, d = xs.shape
    desc, need = _descending(order, first)
    xd = np.take(xs.reshape(c * m, d), desc, axis=0)
    # pos[r]: position of flat row r in its sample's descending order.
    pos = np.empty(c * m, dtype=np.intp)
    pos[desc] = np.arange(m)
    nnd = pos[(nn + m * np.arange(c)[:, None]).ravel()[desc]]
    if degree is not None and m <= block:
        xd, degree = design_matrix(xd, degree), None
    return _l_hat(xd, degree, nnd, _threshold_betas(xd, degree, need, lam, block))


def _bias_term(
    xs: np.ndarray, degree: int | None, order: np.ndarray, first: np.ndarray,
    ranks: np.ndarray, lam: float, nn: np.ndarray,
) -> np.ndarray:
    """``l_hat`` of every sample of a (c, m, d) stack, shape (c,).

    The design rows are ``design_matrix(xs, degree)``, or ``xs`` itself
    when ``degree`` is None. ``order``, ``first`` and ``ranks`` are those of
    :func:`nncorr.dataset._tie_groups`, ``nn`` the (c, m) neighbor indices.
    The ridge system is chosen by shape alone. With m >= K,
    :func:`_primal_l_hat` solves the primal K x K system and reads g in
    factored form, in blocks of :func:`nncorr.ridge_series._block_rows`
    (K) rows, so no (m, K) array exists when m spans more than one block.
    With m < K (a sample smaller than
    the basis, as is every bootstrap subsample of the default size
    floor(sqrt(n)) when n < K^2), the (c, m, K) design matrix is built
    whole, the m x m dual system of
    :func:`nncorr.ridge_series._dual_solve` gives Y and Z, and the ridge
    hat-matrix identity PP'(PP' + m*lam*I)^-1 = I - m*lam*(PP' +
    m*lam*I)^-1 gives g = Y - m*lam*Z itself. Then ``l_hat`` costs O(m^2)
    after the solve. Each neighbor difference is ``Y[nn] - Y``, exactly 0
    on a row whose neighbor ties its response, minus ``m*lam * (Z[nn] -
    Z)``. The two forms agree in exact arithmetic, not in their rounding.
    """
    m, w = xs.shape[-2:]
    k = w if degree is None else len(basis_index_set(w, degree))
    if m >= k:
        return _primal_l_hat(xs, degree, order, first, lam, nn, _block_rows(k))
    ind, z = _dual_solve(_design_rows(xs, degree), first, ranks, lam)
    shift = m * lam
    d = _neighbor_diff(ind, nn)
    d -= shift * _neighbor_diff(z, nn)
    diag = np.arange(m)
    d[:, diag, diag] = 0.0  # drops the j = i term
    g = ind - shift * z
    return _pair_mean(np.einsum("...ij,...ij->...i", g, d))


def _check_monomials(x: np.ndarray, degree: int) -> None:
    """Raise unless every monomial up to ``degree`` of each matrix of unscaled ``x`` is finite.

    :func:`nncorr.ridge_series.design_matrix` computes a monomial of total
    degree t as t - 1 rounded products of covariate values, and a power
    x_v^t as exactly that product of one value. Rounded multiplication is
    monotone in the magnitudes, so the largest |x| of a matrix, raised to
    ``degree`` by the same repeated products, bounds every entry, and it is
    itself an entry. So it is finite exactly when the design matrix is,
    and the design matrix need not exist to be checked.
    """
    top = np.maximum(x.max(axis=(-2, -1)), -x.min(axis=(-2, -1)))
    power = np.ones_like(top)
    with np.errstate(over="ignore"):
        for _ in range(degree):
            power *= top
    if not np.isfinite(power).all():
        raise InputError("design matrix contains NaN or infinite entries")


def _stages(x: np.ndarray, y: np.ndarray, config: PipelineConfig):
    """``t_hat``, ``l_hat`` and ``t_bc`` of every sample in a stack, shape (c,) each.

    ``x`` is (c, m, d) and ``y`` is (c, m), finite as a :class:`Sample`
    holds them; the neighbor search is chosen by m in
    :func:`nncorr.nn_graph._search_stack`, and the ridge system by m and K
    in :func:`_bias_term`, the one call that gives ``l_hat``. One stable
    sort per sample gives the ranks and the ridge right-hand sides of
    either system, every product is computed per matrix, and the first
    failing check raises, so a sample gets the same bits and errors in any
    stack. Scaled covariates lie in [0, 1]^d, so their squared distances and
    monomials are finite; only unscaled ones are checked for overflow, the
    monomials by :func:`_check_monomials` without the design matrix.
    """
    _, m, d = x.shape
    order, first, ranks = _tie_groups(y)
    if (ranks.min(axis=-1) == m).any():
        # Every rank is m only when all m responses are equal.
        raise InputError(
            f"the response is constant over all {m} rows; there is nothing to rank"
        )
    if config.scale_covariates:
        xs = minmax_scale(x)
    else:
        xs = x
        _check_range(xs)
    nn = _search_stack(xs)
    t_hat = _rank_coefficient(ranks, nn)

    basis_index_set(d, config.degree)  # a basis above the cap raises here
    if not config.scale_covariates:
        _check_monomials(xs, config.degree)  # products of unscaled x can overflow
    lam = default_lambda(m, config.lambda_exponent)
    l_hat = _bias_term(xs, config.degree, order, first, ranks, lam, nn)
    t_bc = t_hat - 6.0 * l_hat
    for label, v in (("l_hat", l_hat), ("t_bc", t_bc)):
        bad = ~np.isfinite(v)
        if bad.any():
            raise InputError(f"{label} is not finite: {v[bad][0]}")
    return t_hat, l_hat, t_bc


def estimate(sample: Sample, config: PipelineConfig | None = None) -> EstimateResult:
    """Full pipeline: ranks, neighbor graph, ridge fit, bias correction.

    Both statistics come from the same neighbor graph and covariate
    scaling, and the output is a pure function of (sample, config). The
    n = 2 case is legal but degenerate: the raw statistic is -1 for
    distinct responses, and the correction is whatever the two-point fit
    produces. The bootstrap replicates run the same stages on stacks of
    subsamples.
    """
    if config is None:
        config = PipelineConfig()
    stats = _stages(sample.x[None], sample.y[None], config)
    t_hat, l_hat, t_bc = (float(v[0]) for v in stats)
    return EstimateResult(t_hat=t_hat, l_hat=l_hat, t_bc=t_bc)
