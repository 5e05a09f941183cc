"""The analysis: point estimates, m-out-of-n bootstrap standard errors and intervals.

:func:`analyze` is the one entry point; the command line's ``estimate`` and
every study replication call it. It checks every option first
(:func:`_check_run`), then runs :func:`~nncorr.bias_correction.estimate`
on the sample, draws B subsamples of size m (default floor(sqrt(n))) with
replacement, recomputes ``t_hat`` and ``t_bc`` in full on each (the ridge
penalty tracks the subsample size), and returns an :class:`Analysis`. Each
root-n standard error is sqrt(m * s^2 / n), s^2 the replicates' sample
variance, and each interval is the estimate +- z_{1-alpha/2} times it.

The (B, m) index block reproduces every replicate's stream,
``derive_rng(seed, r)``, bit for bit (:func:`nncorr.rng._integers_block`;
n is limited to 2**32 - 1), so results depend neither on evaluation order
nor on thread count. Chunks of subsamples run through the stage function of
``estimate`` as (chunk, m, .) arrays, so every replicate's ``t_hat`` and
``t_bc`` are bit-identical to ``estimate`` on the same subsample; an error
in a replicate names it. The neighbour search is chosen by m
(:func:`nncorr.nn_graph._search_stack`: the full distance matrix up to
m = 200, a kd-tree above), and a subsample smaller than the basis solves
the m x m dual ridge system (:func:`nncorr.ridge_series._dual_solve`) and
reads the bias term from the m x m fitted curves
(:func:`nncorr.bias_correction._bias_term`). No block of a replicate
exceeds max(m, K)^2 floats, and chunks along the replicate axis keep that
within a fixed byte budget; the results do not depend on the chunk size.

The full-sample estimate and the replicates need nothing from each other.
When the full-sample neighbour search would run at least two kd-tree
workers (at least 2 000 rows and a worker setting of 2 or more, see
:mod:`nncorr._threads`), the estimate runs on one helper thread, whose
searches take one worker fewer, while the calling thread draws the index
block and runs the replicates; the kd-tree search releases the interpreter
lock, so the two overlap. Below that, both run on the calling thread, one
after the other. Either way the same two calls give the same bits, and an
error of the estimate is raised ahead of one of a replicate.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import _threads
from .bias_correction import PipelineConfig, _stages, default_lambda, estimate
from .dataset import Sample
from .errors import InputError
from .nn_graph import _ROWS_PER_WORKER
from .ridge_series import _CHUNK_BYTES, basis_index_set
from .rng import _check_path, _integers_block, _number, _whole

DEFAULT_B_REPS = 200


def _se(stats: np.ndarray, m: int, n: int) -> float:
    """Root-n standard error sqrt(m * Var(stats) / n) of the replicate values."""
    return math.sqrt(m * float(np.var(stats, ddof=1)) / n)


def _replicates(
    sample: Sample, config: PipelineConfig, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Replicate values of ``t_hat`` and ``t_bc`` over the index block."""
    b_reps, m = draws.shape
    k = len(basis_index_set(sample.d, config.degree))
    # The byte budget bounds one chunk's largest block, at most max(m, K)^2
    # floats a replicate: the (chunk, m, m) squared distances, dual matrices
    # and fitted curves, the (chunk, m, K) design matrices and threshold
    # blocks, or the (chunk, K, K) Gram matrices. Every stage is computed
    # per replicate, so it bounds memory only.
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
        for r, idx in enumerate(block, lo):
            try:
                _stages(sample.x[idx][None], sample.y[idx][None], config)
            except InputError as exc:
                raise InputError(f"bootstrap replicate {r} of {b_reps} (m = {m}): {exc}") from exc
        raise failure
    t_hat, _, t_bc = (np.concatenate(v) for v in zip(*parts))
    return t_hat, t_bc


def _beside(first, second, workers: int):
    """Return ``(first(), second())``, ``first`` run on a helper thread beside ``second``.

    The helper's kd-tree searches run ``workers`` workers. It is joined
    before this returns or raises, also on ``KeyboardInterrupt``, and an
    error of ``first`` wins over one of ``second``, as if the two ran one
    after the other.
    """
    out = {}

    def run():
        _threads._set_thread_workers(workers)
        try:
            out["value"] = first()
        except BaseException as exc:
            out["error"] = exc

    helper = threading.Thread(target=run, name="nncorr-estimate")
    helper.start()
    value = late = None
    try:
        value = second()
    except BaseException as exc:
        late = exc
    while helper.is_alive():
        try:
            helper.join()
        except KeyboardInterrupt as exc:
            late = exc
    if "error" in out:
        raise out["error"]
    if late is not None:
        raise late
    return out["value"], value


def _check_run(
    n: int, d: int, config: PipelineConfig, b_reps: int, m: int | None, alpha: float, seed: int
) -> tuple[int, int, int]:
    """Run every check of one analysis before its work; return its ``(b_reps, m, seed)``."""
    b_reps = _whole("b_reps", b_reps)
    if b_reps < 2:
        raise InputError(f"need b_reps >= 2, got {b_reps}")
    m = math.isqrt(n) if m is None else _whole("m", m)
    if m < 2:
        raise InputError(f"need subsample size m >= 2, got {m}")
    if m > n:
        raise InputError(f"subsample size {m} exceeds sample size {n}")
    if not 0.0 < _number("alpha", alpha) < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    seed = _check_path(seed, ())[0]
    basis_index_set(d, config.degree)
    # m <= n, so a penalty that is positive at n is positive in every replicate.
    default_lambda(n, config.lambda_exponent)
    return b_reps, m, seed


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
    ``seed`` must be whole numbers: 20.0 runs as 20, 2.7 or "20" raises.

    From n = 2 000 rows at a worker setting of 2 or more, the full-sample
    estimate runs on a helper thread beside the replicates (module
    docstring); the helper is joined before this returns or raises, and the
    results are the bits of running the two one after the other.
    """
    if config is None:
        config = PipelineConfig()
    n = sample.n
    b_reps, m, seed = _check_run(n, sample.d, config, b_reps, m, alpha, seed)

    def full():
        return estimate(sample, config)

    def replicates():
        return _replicates(sample, config, _integers_block(seed, n, m, b_reps))

    workers = _threads.get_workers()
    # Beside the replicates only once the full-sample search would run two
    # kd-tree workers (build_nn's rule): below that it would fight the
    # replicate engine for the interpreter lock.
    if min(workers, n // _ROWS_PER_WORKER) >= 2:
        res, (t_hat, t_bc) = _beside(full, replicates, workers - 1)
    else:
        res = full()
        t_hat, t_bc = replicates()
    se_t, se_tbc = _se(t_hat, m, n), _se(t_bc, m, n)
    z = float(ndtri(1.0 - alpha / 2.0))
    return Analysis(
        res.t_hat, res.l_hat, res.t_bc, m, se_t, se_tbc,
        (res.t_hat - z * se_t, res.t_hat + z * se_t),
        (res.t_bc - z * se_tbc, res.t_bc + z * se_tbc),
    )
