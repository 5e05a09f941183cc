"""Thread settings: kd-tree workers, and one BLAS thread inside the pipeline.

Workers. The neighbor queries are the one operation that nncorr spreads
over threads. Priority: explicit ``set_workers`` call, then the
``ACBC_THREADS`` environment variable, then all available cores; ``0``
(or unset) means all cores, and any count is capped at ``os.cpu_count()``.
This is the only parallelism setting, and an upper bound:
:func:`nncorr.nn_graph.build_nn` runs at most one worker per 1 000 rows
(``nn_graph._ROWS_PER_WORKER``), since below that a worker costs more to
start than it saves, so a search of fewer than 2 000 rows runs on the
calling thread.

BLAS. The pipeline's products are O(n K^2) with a basis of a few dozen
columns, too small to share across threads, and idle OpenBLAS threads
spinning next to the kd-tree workers cost CPU time for no speed.
:func:`single_blas_thread` runs NumPy's bundled OpenBLAS on one thread for
the body of the ``with`` block and then restores the count that was there
before. On first use it looks up ``openblas_set_num_threads_local``
(OpenBLAS >= 0.3.27) in the ``libscipy_openblas*`` library that NumPy has
already loaded; if that library or symbol is missing, the manager does
nothing. In NumPy's pthreads build that setter changes the process-wide
count, so overlapping bodies, nested or in other Python threads, share one
pin: the first to enter sets 1 and the last to leave restores the saved
count. While a body runs, BLAS calls made by other threads of the process
also run on one thread.

Neither setting changes a result: every computation gives the same bits
at any worker or BLAS thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

from .errors import InputError

_workers: int | None = None

_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


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


def get_workers() -> int:
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


@functools.cache
def _blas_setter():
    """NumPy's loaded ``openblas_set_num_threads_local``, or None."""
    # RTLD_NOLOAD returns the handle NumPy already holds and fails rather
    # than load a copy that is not mapped yet. SciPy's own OpenBLAS (loaded
    # through scipy.linalg) has its own pool, which the package never calls.
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    root = Path(np.__file__).parent
    candidates = [*sorted(root.parent.joinpath("numpy.libs").glob("libscipy_openblas*")),
                  *sorted(root.joinpath(".dylibs").glob("libscipy_openblas*"))]
    for path in candidates:
        try:
            setter = ctypes.CDLL(str(path), mode=os.RTLD_NOW | noload).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = (ctypes.c_int,)
        setter.restype = ctypes.c_int
        return setter
    return None


def blas_pin_active() -> bool:
    """Whether :func:`single_blas_thread` can pin NumPy's BLAS in this process."""
    return _blas_setter() is not None


@contextlib.contextmanager
def single_blas_thread():
    """Run NumPy's BLAS on one thread inside the block, then restore the old count."""
    global _pin_depth, _pin_saved
    setter = _blas_setter()
    if setter is None:
        yield
        return
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = setter(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                setter(_pin_saved)
