"""Nearest-neighbor rank correlation with ridge-based bias correction.

The raw coefficient measures how predictable a response is from a
covariate vector, using only response ranks and each point's nearest
neighbor; it is 0 at independence and 1 at exact functional dependence.
In moderate dimensions it carries a noticeable finite-sample bias, which
this package estimates with a polynomial-basis ridge fit of the
conditional survival function and subtracts off. Subsample bootstrap
intervals and a reproducible Monte-Carlo study harness round out the
toolkit.

Typical use::

    from nncorr import Sample, analyze
    res = analyze(Sample(x=x, y=y), seed=0)
    print(res.t_hat, res.t_bc, res.ci_tbc)

The bootstrap steps, the random streams and the study's file formats are in
:mod:`nncorr.bootstrap`, :mod:`nncorr.rng` and :mod:`nncorr.cli`.
"""

from .bias_correction import (
    EstimateResult,
    PipelineConfig,
    default_lambda,
    estimate,
)
from .bootstrap import Analysis, analyze
from .dataset import Sample, load_csv, minmax_scale
from .errors import InputError
from .nn_graph import build_nn
from .ridge_series import basis_index_set, design_matrix
from .simulation import (
    CellSummary,
    CopulaConfig,
    RawRecord,
    gen_gaussian_copula,
    run_study,
    true_t,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "CellSummary",
    "CopulaConfig",
    "EstimateResult",
    "InputError",
    "PipelineConfig",
    "RawRecord",
    "Sample",
    "analyze",
    "basis_index_set",
    "build_nn",
    "default_lambda",
    "design_matrix",
    "estimate",
    "gen_gaussian_copula",
    "load_csv",
    "minmax_scale",
    "run_study",
    "true_t",
]
