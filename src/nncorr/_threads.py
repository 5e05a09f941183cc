"""The kd-tree worker count.

nncorr spreads two things over threads: the kd-tree neighbor queries, and
:func:`nncorr.bootstrap.analyze`'s full-sample estimate, which runs on one
helper thread beside the bootstrap replicates when its own search would
get at least two kd-tree workers. Priority: explicit ``set_workers`` call,
then the ``ACBC_THREADS`` environment variable, then all available cores;
``0`` (or unset) means all cores, and any count is capped at
``os.cpu_count()``.
This is the only parallelism setting, and an upper bound:
:func:`nncorr.nn_graph.build_nn` runs at most one worker per 1 000 rows
(``nn_graph._ROWS_PER_WORKER``), since below that a worker costs more to
start than it saves, so a search of fewer than 2 000 rows runs on the
calling thread. The helper thread counts as a worker: its searches run one
kd-tree worker fewer (at least one), through a count of its own that
:func:`get_workers` reads before the setting. A setting of 1 runs
everything on the calling thread.

The setting never changes a result: every computation gives the same bits
at any worker count, and at any BLAS thread count too, which nncorr leaves
to NumPy's own defaults and environment variables.
"""

from __future__ import annotations

import contextlib
import os
import threading

from .errors import InputError

_workers: int | None = None
# The helper thread's own worker count; no other thread sets it.
_local = threading.local()


def set_workers(k: int | None) -> int | None:
    """Set the kd-tree worker count (``None`` or 0: all cores); return the old setting."""
    global _workers
    if k is not None and k < 0:
        raise InputError(f"thread count must be >= 0 (0 means all cores), got {k}")
    previous = _workers
    _workers = None if not k else int(k)
    return previous


@contextlib.contextmanager
def workers(k: int | None):
    """Use ``k`` kd-tree workers inside the block, then restore the old setting.

    ``None`` leaves the setting as it is.
    """
    if k is None:
        yield
        return
    previous = set_workers(k)
    try:
        yield
    finally:
        set_workers(previous)


def _set_thread_workers(k: int) -> None:
    """Give the calling thread ``k`` kd-tree workers, ahead of every other setting."""
    _local.workers = k


def get_workers() -> int:
    own = getattr(_local, "workers", None)
    if own is not None:
        return own
    cores = os.cpu_count() or 1
    if _workers is not None:
        return min(_workers, cores)
    env = os.environ.get("ACBC_THREADS", "").strip()
    if env:
        try:
            k = int(env)
        except ValueError:
            k = 0
        if k > 0:
            return min(k, cores)
    return cores

