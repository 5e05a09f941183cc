"""The uncorrected nearest-neighbor rank correlation coefficient."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import RankVector
from .errors import DimensionMismatchError
from .nn_graph import NnGraph


@dataclass(frozen=True)
class TnValue:
    """Value of the coefficient on a sample of size n.

    Finite-sample values below 0 are legitimate (n = 2 always yields -1 on
    distinct responses), so nothing is clamped.
    """

    value: float
    n: int


def chatterjee_t(ranks: RankVector, nn: NnGraph) -> TnValue:
    """Coefficient 6/(n^2-1) * sum_i min(r_i, r_nn(i)) - (2n+1)/(n-1).

    ``ranks`` and ``nn`` must come from the same sample. The sum of rank
    minima is accumulated in exact integer arithmetic and divided once, so
    the result carries a single rounding step per term of the formula.
    """
    r = ranks.r
    idx = nn.nn
    if r.shape[0] != idx.shape[0]:
        raise DimensionMismatchError(
            f"ranks have length {r.shape[0]} but nn graph has length {idx.shape[0]}"
        )
    n = int(r.shape[0])
    s = np.minimum(r, r[idx]).sum(dtype=np.int64)
    return TnValue(value=float(_rank_coefficient(s, n)), n=n)


def _rank_coefficient(s, n: int):
    """``6 s / (n^2-1) - (2n+1)/(n-1)`` for integer rank-minimum sums ``s``.

    ``s`` may be a scalar or an array of sums over samples of size n each;
    every value goes through the same sane-range check, and the first one
    outside it raises.
    """
    value = (6 * np.asarray(s, dtype=np.int64)) / (n * n - 1) - (2 * n + 1) / (n - 1)
    bad = ~np.isfinite(value) | (value > 1.5) | (value < -3.0)
    if bad.any():
        raise RuntimeError(
            f"coefficient {float(value[bad].flat[0])} outside sane range; ranks and nn "
            "graph are inconsistent or the response is pathologically tied"
        )
    return value
