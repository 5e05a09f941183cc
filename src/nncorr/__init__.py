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
:mod:`nncorr.bootstrap`, :mod:`nncorr.rng` and :mod:`nncorr.cli`. The
pipeline's stages (scaling, neighbor search, basis, design matrix, penalty)
are internal: they live in :mod:`nncorr.dataset`, :mod:`nncorr.nn_graph`,
:mod:`nncorr.ridge_series` and :mod:`nncorr.bias_correction` and trust the
inputs that :class:`Sample` and :func:`analyze` have checked.
"""

from .bias_correction import EstimateResult, PipelineConfig, estimate
from .bootstrap import Analysis, analyze
from .dataset import Sample, load_csv
from .errors import InputError
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
    "estimate",
    "gen_gaussian_copula",
    "load_csv",
    "run_study",
    "true_t",
]
