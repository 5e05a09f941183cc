"""Gaussian-copula data generator and the Monte-Carlo study harness.

The generator draws a latent normal vector per row, mixes the first
coordinate into the response with weight rho, and pushes everything through
the standard normal CDF so the observed sample has uniform marginals. For
this family the population dependence value has a closed form, which makes
RMSE and interval-coverage summaries exact rather than estimated.

The study returns one :class:`CellSummary` per grid cell, each computed from
that cell's :class:`RawRecord` rows. It reads no clock, so its outputs are
a pure function of its arguments. The study's file formats, ``report.txt``
and ``raw.csv``, are written by :mod:`nncorr.cli`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .bias_correction import PipelineConfig
from .bootstrap import DEFAULT_B_REPS, _check_run, analyze
from .dataset import Sample
from .errors import InputError
from .rng import _whole, derive_rng, derive_seed

# Stream tags separating the data draw from the bootstrap draws within one
# replication; both hang off (seed, cell_index, rep_index).
_TAG_DATA = 0
_TAG_BOOT = 1


@dataclass(frozen=True)
class CopulaConfig:
    """Shape of one synthetic dataset: n rows, d covariates, mixing rho."""

    n: int
    d: int
    rho: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"need n >= 2, got {self.n}")
        if self.d < 1:
            raise InputError(f"need d >= 1, got {self.d}")
        if not 0.0 <= self.rho < 1.0:
            raise InputError(f"need 0 <= rho < 1, got {self.rho}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class CellSummary:
    """Aggregates for one (rho, d, n) grid cell."""

    rho: float
    d: int
    n: int
    reps: int
    rmse_t: float
    rmse_tbc: float
    ecp_t: float
    ecp_tbc: float
    mean_t: float
    mean_tbc: float


@dataclass(frozen=True)
class RawRecord:
    """One replication's estimates and intervals, for audit trails."""

    cell_id: int
    rep: int
    t_hat: float
    t_bc: float
    ci_lo_t: float
    ci_hi_t: float
    ci_lo_tbc: float
    ci_hi_tbc: float
    true_t: float


def gen_gaussian_copula(cfg: CopulaConfig) -> Sample:
    """Draw one dataset: X = Phi(latent normals), Y mixes the first column.

    The latent response is rho * Xtilde[:, 0] + sqrt(1 - rho^2) * Z with Z
    standard normal, so rho = 0 gives exact independence and rho -> 1
    approaches a deterministic relationship. All outputs lie strictly in
    (0, 1). Bit-identical for a given config on any thread count.
    """
    rng = derive_rng(cfg.seed)
    xt = rng.standard_normal((cfg.n, cfg.d))
    z = rng.standard_normal(cfg.n)
    yt = cfg.rho * xt[:, 0] + math.sqrt(1.0 - cfg.rho * cfg.rho) * z
    return Sample(x=ndtr(xt), y=ndtr(yt))


def true_t(rho: float) -> float:
    """Closed-form population value (3/pi) * arcsin((1 + rho^2)/2) - 1/2.

    The value lies in [0, 1] and increases strictly with rho. The endpoints
    are handled exactly: independence gives 0, a perfectly dependent pair
    gives 1.
    """
    if not 0.0 <= rho <= 1.0:
        raise InputError(f"need rho in [0, 1], got {rho}")
    if rho == 0.0:
        return 0.0
    if rho == 1.0:
        return 1.0
    return (3.0 / math.pi) * math.asin((1.0 + rho * rho) / 2.0) - 0.5


def _summarize(rho, d, n, rows) -> CellSummary:
    """One cell's RMSE, coverage and means, from its replication records."""
    truth = rows[0].true_t
    est_t = np.array([rec.t_hat for rec in rows])
    est_bc = np.array([rec.t_bc for rec in rows])
    cover_t = np.array([rec.ci_lo_t <= truth <= rec.ci_hi_t for rec in rows], dtype=float)
    cover_bc = np.array([rec.ci_lo_tbc <= truth <= rec.ci_hi_tbc for rec in rows], dtype=float)
    return CellSummary(
        rho=float(rho),
        d=int(d),
        n=int(n),
        reps=len(rows),
        rmse_t=float(np.sqrt(np.mean((est_t - truth) ** 2))),
        rmse_tbc=float(np.sqrt(np.mean((est_bc - truth) ** 2))),
        ecp_t=float(np.mean(cover_t)),
        ecp_tbc=float(np.mean(cover_bc)),
        mean_t=float(np.mean(est_t)),
        mean_tbc=float(np.mean(est_bc)),
    )


def run_study(
    grid,
    reps: int,
    alpha: float = 0.05,
    b_reps: int = DEFAULT_B_REPS,
    seed: int = 0,
    records: list | None = None,
) -> tuple[CellSummary, ...]:
    """Monte-Carlo sweep over (rho, d, n) cells, one summary per cell in grid order.

    Per replication: generate a dataset, run the command line's analysis on
    it (default :class:`PipelineConfig` and subsample size), and keep both
    estimates, both intervals and the closed-form truth in a
    :class:`RawRecord`. Each cell's summary is computed from its records.
    Replication streams derive from (seed, cell_index, rep_index), so any
    execution order reproduces the same numbers. Pass a list as ``records``
    to capture every record for the raw CSV sidecar. Each cell is read once
    as (float, int, int). ``reps``, ``b_reps``, ``seed`` and each cell's d
    and n are read by one rule: a whole float such as 30.0 runs as 30, and
    30.7 raises. Every option is checked before any replication runs; a failing
    replication raises with the cell coordinates attached, an
    :class:`InputError` when the drawn data is at fault and a
    :class:`RuntimeError` otherwise.
    """
    grid = list(grid)
    if not grid:
        raise InputError("empty simulation grid")
    reps = _whole("reps", reps)
    if reps < 1:
        raise InputError(f"need reps >= 1, got {reps}")
    config = PipelineConfig()
    grid = [(float(rho), _whole("d", d), _whole("n", n)) for rho, d, n in grid]
    for rho, d, n in grid:
        # Every cell's options are checked as each replication checks them,
        # so a bad one fails before any replication runs.
        CopulaConfig(n=n, d=d, rho=rho)
        b_reps, _, seed = _check_run(n, d, config, b_reps, None, alpha, seed)

    cells = []
    for ci, (rho, d, n) in enumerate(grid):
        truth = true_t(rho)
        rows = []
        for r in range(reps):
            try:
                data_seed = derive_seed(seed, ci, r, _TAG_DATA)
                boot_seed = derive_seed(seed, ci, r, _TAG_BOOT)
                sample = gen_gaussian_copula(CopulaConfig(n=n, d=d, rho=rho, seed=data_seed))
                res = analyze(sample, config, b_reps=b_reps, alpha=alpha, seed=boot_seed)
            except Exception as exc:
                # A property of the drawn data stays an input error.
                wrap = InputError if isinstance(exc, InputError) else RuntimeError
                raise wrap(
                    f"replication {r} of cell (rho={rho}, d={d}, n={n}) failed: {exc}"
                ) from exc
            rows.append(RawRecord(ci, r, res.t_hat, res.t_bc, *res.ci_t, *res.ci_tbc, truth))
        cells.append(_summarize(rho, d, n, rows))
        if records is not None:
            records.extend(rows)
    return tuple(cells)

