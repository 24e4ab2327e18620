"""The thread count of numpy's bundled OpenBLAS, read and set through
``ctypes``, and the solve's use of it.

numpy's Linux wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so``,
next to the ``numpy`` package, and it exports
``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_``. Where that library or either symbol
is absent (another BLAS, another build of numpy), ``blas_threads`` returns
None and ``set_blas_threads`` does nothing.

The count is a setting of the whole process. ``solve_threads`` is how a
solve spends it on threads of its own, and it restores the count on exit.
"""

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["blas_threads", "set_blas_threads", "solve_threads"]


@functools.cache
def _library():
    """The (getter, setter) pair of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def blas_threads():
    """The BLAS thread count, or None where it cannot be read."""
    lib = _library()
    return None if lib is None else lib[0]()


def set_blas_threads(n: int) -> None:
    """Set the BLAS thread count to ``n`` (at least 1); nothing happens
    where ``blas_threads()`` is None."""
    if n < 1:
        raise ValueError(f"BLAS thread count must be >= 1, got {n}")
    lib = _library()
    if lib is not None:
        lib[1](n)


# the BLAS count is one setting of the whole process, so its holders are
# kept once per process: how many solve_threads blocks hold it at 1, and
# the count the first of them found; both under _lock
_lock = threading.Lock()
_holders = 0
_saved = None


@contextmanager
def solve_threads(parts: int):
    """Yield how many threads to solve ``parts`` independent parts on: the
    BLAS thread count at entry, at most ``parts``, and 1 where the count
    cannot be read. Whenever the count at entry is more than 1, BLAS runs
    on one thread inside the block, for one part as for many, so that each
    solve thread's products use one core and their bits do not depend on
    the count; the count is set back on exit, also when the block raises.
    One part is solved on the calling thread at one BLAS thread, not on
    BLAS's own threads: at the shape of a 2.5 s separation (F=257, K=80,
    T=157) a step took about 195 µs at one BLAS thread against 240–275 µs
    at two on a 2-core machine, since the K×K products gain little from
    a second thread at that size while the elementwise passes after them
    run slower.

    Blocks may overlap in several Python threads. The first to move the
    count saves it, the others take the saved count as their entry count
    and the last to leave restores it, all under one lock: a plain
    save and restore in each would let the second save the first one's 1
    and leave the process at 1 thread. While any block is inside, every
    BLAS call of the process runs on one thread."""
    global _holders, _saved
    with _lock:
        entry = _saved if _holders else blas_threads()
        workers = min(entry or 1, parts)
        hold = (entry or 1) > 1
        if hold:
            if not _holders:
                _saved = entry
                set_blas_threads(1)
            _holders += 1
    try:
        yield workers
    finally:
        if hold:
            with _lock:
                _holders -= 1
                if not _holders:
                    set_blas_threads(_saved)
