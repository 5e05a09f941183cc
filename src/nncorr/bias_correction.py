"""Plug-in bias estimate for the neighbor rank statistic, and the pipeline.

The raw statistic carries a first-order bias driven by how often the
conditional survival curves at a point and at its nearest neighbor
disagree. That quantity is estimated by an average of survival-probability
products over all ordered pairs, with the survival curves themselves fitted
by :mod:`nncorr.ridge_series`. Subtracting six times the estimate gives the
corrected statistic.

The fitted survival matrix g = P @ betas has rank K (the basis size), so the
pair average is computed from the n x K and K x n factors in O(n K^2) time
and O(n K) memory; the n x n matrix is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Sample, compute_ranks, minmax_scale
from .errors import DimensionMismatchError, InputError
from .estimator import chatterjee_t
from .nn_graph import NnGraph, build_nn
from .ridge_series import basis_index_set, design_matrix, ridge_fit_all

DEFAULT_DEGREE = 2
# Exponent c in the penalty lambda = n**-c. Small c over-shrinks the fitted
# survival curves and leaves most of the bias in place; c near 2 makes the
# bootstrap refits (subsample size below the basis size) approach
# interpolation, which under-disperses the resampled statistic and breaks
# interval calibration. c = 1.2 balances the two; both failure modes are
# exercised by the acceptance suite.
DEFAULT_LAMBDA_EXPONENT = 1.2


def default_lambda(n: int, exponent: float = DEFAULT_LAMBDA_EXPONENT) -> float:
    """Sample-size driven ridge penalty n**-exponent."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if not exponent > 0.0:
        raise InputError(f"penalty exponent must be positive, got {exponent}")
    return float(n) ** -exponent


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs for the full estimation pipeline.

    The ridge penalty is always derived from the fitted sample size as
    n**-lambda_exponent, so refits on subsamples shrink their penalty
    accordingly. ``scale_covariates`` applies min-max rescaling before both
    the neighbor search and the polynomial basis. Fitted survival values are
    never clamped into [0, 1]: the raw linear estimator is the analyzed one.
    """

    degree: int = DEFAULT_DEGREE
    lambda_exponent: float = DEFAULT_LAMBDA_EXPONENT
    scale_covariates: bool = True

    def __post_init__(self):
        if self.degree < 0:
            raise InputError(f"degree must be nonnegative, got {self.degree}")
        if not self.lambda_exponent > 0.0:
            raise InputError(
                f"lambda_exponent must be positive, got {self.lambda_exponent}"
            )


@dataclass(frozen=True)
class EstimateResult:
    """Point estimates from one run of the pipeline.

    The pipeline is deterministic and bootstrap-free; intervals come from
    :mod:`nncorr.bootstrap`.
    """

    t_hat: float
    l_hat: float
    t_bc: float
    n: int
    d: int
    config: PipelineConfig

    def __post_init__(self):
        for label, v in (("t_hat", self.t_hat), ("l_hat", self.l_hat), ("t_bc", self.t_bc)):
            if not math.isfinite(v):
                raise InputError(f"{label} is not finite: {v}")


def bias_estimate(p: np.ndarray, betas: np.ndarray, nn: NnGraph) -> float:
    """Average pair discrepancy of the fitted survival curves g = p @ betas.

    Computes ``sum_{i != j} g[i,j] * (g[nn[i],j] - g[i,j]) / (n*(n-1))``
    without forming the n x n matrix g. Since g has rank K, row i of the sum
    is ``p_i M d_i' - g[i,i] * (d_i @ betas[:, i])`` with ``M = betas @
    betas.T`` and ``d_i = p[nn[i]] - p_i``; the second part removes the
    j = i term exactly. The neighbor differences d are formed before any
    product, so rows whose fitted curves agree contribute exactly zero
    rather than a cancellation residue. The n row terms are combined with
    ``math.fsum``, making the result depend on nothing but the inputs.
    O(n K^2) time and O(n K) memory.
    """
    pm = np.asarray(p, dtype=np.float64)
    bm = np.asarray(betas, dtype=np.float64)
    if pm.ndim != 2 or bm.ndim != 2 or bm.shape != pm.shape[::-1]:
        raise DimensionMismatchError(
            f"factors must be n x K and K x n, got {pm.shape} and {bm.shape}"
        )
    n = pm.shape[0]
    if nn.nn.shape[0] != n:
        raise DimensionMismatchError(
            f"neighbor map covers {nn.nn.shape[0]} points but the factors have {n} rows"
        )
    if n < 2:
        raise InputError("need at least two rows to average over pairs")
    return math.fsum(_bias_rows(pm, bm, nn.nn).tolist()) / (n * (n - 1))


def _bias_rows(p: np.ndarray, betas: np.ndarray, nn: np.ndarray) -> np.ndarray:
    """Row terms of :func:`bias_estimate`, shape (..., n).

    Takes factors (n, K) and (K, n) with neighbor indices (n,), or stacks
    of them with the same leading axes.
    """
    d = np.take_along_axis(p, nn[..., None], axis=-2) - p
    # einsum sums every entry of M in the same order, so equal rows of betas
    # give bit-equal entries and curves that agree cancel exactly; BLAS
    # (syrk or gemm) rounds edge and diagonal blocks differently.
    m = np.einsum("...kj,...lj->...kl", betas, betas)
    pairs = np.einsum("...ik,...ik->...i", p, d @ m)
    diag = np.einsum("...ik,...ki->...i", p, betas) * np.einsum("...ik,...ki->...i", d, betas)
    return pairs - diag


def estimate(sample: Sample, config: PipelineConfig | None = None) -> EstimateResult:
    """Full pipeline: ranks, neighbor graph, ridge fit, bias correction.

    Both statistics come from the same neighbor graph and covariate
    scaling, and the output is a pure function of (sample, config). The
    n = 2 case is legal but degenerate: the raw statistic is -1 for
    distinct responses, and the correction is whatever the two-point fit
    produces.
    """
    if config is None:
        config = PipelineConfig()
    n, d = sample.n, sample.d

    ranks = compute_ranks(sample.y)
    xs = minmax_scale(sample.x).xs if config.scale_covariates else sample.x
    nn = build_nn(xs)
    t_hat = chatterjee_t(ranks, nn).value

    basis = basis_index_set(d, config.degree)
    p = design_matrix(xs, basis)
    lam = default_lambda(n, config.lambda_exponent)
    model = ridge_fit_all(p, sample.y, lam)

    l_hat = bias_estimate(model.p, model.betas, nn)
    t_bc = t_hat - 6.0 * l_hat

    return EstimateResult(
        t_hat=t_hat,
        l_hat=l_hat,
        t_bc=t_bc,
        n=n,
        d=d,
        config=config,
    )
