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

    from nncorr import Sample, estimate
    result = estimate(Sample(x=x, y=y))
    print(result.t_hat, result.t_bc)
"""

from .bias_correction import (
    EstimateResult,
    PipelineConfig,
    default_lambda,
    estimate,
)
from .bootstrap import (
    confidence_interval,
    default_m,
    mn_bootstrap_pair,
)
from .dataset import Sample, load_csv, minmax_scale
from .errors import InputError
from .nn_graph import build_nn
from .ridge_series import basis_index_set, design_matrix
from .rng import derive_rng, derive_seed
from .simulation import (
    RAW_CSV_HEADER,
    CellSummary,
    CopulaConfig,
    RawRecord,
    format_report,
    gen_gaussian_copula,
    raw_csv_lines,
    run_study,
    true_t,
)

__version__ = "0.1.0"

__all__ = [
    "RAW_CSV_HEADER",
    "CellSummary",
    "CopulaConfig",
    "EstimateResult",
    "InputError",
    "PipelineConfig",
    "RawRecord",
    "Sample",
    "basis_index_set",
    "build_nn",
    "confidence_interval",
    "default_lambda",
    "default_m",
    "derive_rng",
    "derive_seed",
    "design_matrix",
    "estimate",
    "format_report",
    "gen_gaussian_copula",
    "load_csv",
    "minmax_scale",
    "mn_bootstrap_pair",
    "raw_csv_lines",
    "run_study",
    "true_t",
]
