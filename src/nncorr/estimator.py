"""The uncorrected nearest-neighbor rank correlation coefficient.

It takes the int64 ranks of :func:`nncorr.dataset.compute_ranks` and the
neighbor indices of :func:`nncorr.nn_graph.build_nn` and returns a float.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError


def chatterjee_t(ranks: np.ndarray, nn: np.ndarray) -> float:
    """Coefficient 6/(n^2-1) * sum_i min(r_i, r_nn(i)) - (2n+1)/(n-1).

    ``ranks`` and ``nn`` must come from the same sample. The sum of rank
    minima is accumulated in exact integer arithmetic and divided once, so
    the result carries a single rounding step per term of the formula.
    Finite-sample values below 0 are legitimate (n = 2 always yields -1 on
    distinct responses), so nothing is clamped.
    """
    r = np.asarray(ranks, dtype=np.int64)
    idx = np.asarray(nn)
    if r.shape[0] != idx.shape[0]:
        raise DimensionMismatchError(
            f"ranks have length {r.shape[0]} but the neighbor map has length {idx.shape[0]}"
        )
    return float(_rank_coefficient(r[None], idx[None])[0])


def _rank_coefficient(ranks: np.ndarray, nn: np.ndarray) -> np.ndarray:
    """:func:`chatterjee_t` of every sample in a stack: (c, n) ranks and nn give (c,).

    Each sample's sum of rank minima is exact in int64; every value goes
    through the same sane-range check, and the first one outside it raises.
    """
    c, n = ranks.shape
    r_nn = ranks.ravel()[nn + n * np.arange(c)[:, None]]
    s = np.minimum(ranks, r_nn, out=r_nn).sum(axis=-1, dtype=np.int64)
    value = (6 * s) / (n * n - 1) - (2 * n + 1) / (n - 1)
    bad = ~np.isfinite(value) | (value > 1.5) | (value < -3.0)
    if bad.any():
        raise RuntimeError(
            f"coefficient {float(value[bad].flat[0])} outside sane range; ranks and nn "
            "graph are inconsistent or the response is pathologically tied"
        )
    return value
