"""One BLAS thread for derivlab's own dense linear algebra.

derivlab's systems are small: the largest the README advertises, the
matrix:8 Leibniz system, is 4224 x 128. On such sizes an OpenBLAS thread
pool gives little or no speed-up; its workers spin after every parallel
call and burn about as much CPU again, and a parallel call may round
differently from a serial one, so report bytes would depend on the thread
count. OpenBLAS also splits every complex matrix-vector product of 4096
entries or more, the size of one map on matrix:8, and the row forms make
one such product per row. `single_blas_thread` runs a function with one
OpenBLAS thread and restores the previous count when it returns. It wraps
the public functions that factor, solve or multiply matrices of a problem's
size: the certifying constructors, `nullspace`, `conjugation_map`,
`bilinear_rows` and `LinearMap`'s products, the derivation layer's systems,
subspaces, solves and verdicts, and the perturbation and hypothesis
sampling of `perturb`.

The count is set through `openblas_set_num_threads_local` (OpenBLAS 0.3.27
and later, exported unprefixed by the OpenBLAS that numpy's wheels bundle),
looked up in numpy's bundled library on first use. In those builds the
setter calls `openblas_set_num_threads`, which sets the count of the whole
process, so the scopes open in all threads are counted: the first to open
saves the count and sets one thread, the last to close restores it. Other
numpy work in the process runs with one thread while a derivlab call is
open, and with its own count before and after. Without OpenBLAS, or with an
OpenBLAS too old for the setter, every scope is a no-op.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading

import numpy as np

_lock = threading.Lock()
_setter = None  # the ctypes setter; False once the search has found none
_open = 0  # scopes open in all threads
_saved = 0  # the count before the first of them opened


def _find_setter():
    """`openblas_set_num_threads_local` of the OpenBLAS numpy has loaded,
    from numpy's bundled libraries (numpy.libs beside the package on Linux
    and Windows, numpy/.dylibs on macOS), or False."""
    package = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(package + ".libs", "*openblas*"))
                       + glob.glob(os.path.join(package, ".dylibs", "*openblas*"))):
        try:
            # only a library numpy has loaded: another copy has its own pool
            library = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            setter = library.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return False


def _set(count: int) -> int | None:
    """Set the OpenBLAS thread count and return the previous one; None
    without a setter. Called with _lock held."""
    global _setter
    if _setter is None:
        _setter = _find_setter()
    return _setter(count) if _setter else None


def blas_threads() -> int | None:
    """The current OpenBLAS thread count, read by setting one thread and
    setting the count back; None without a setter."""
    with _lock:
        count = _set(1)
        if count is not None:
            _set(count)
        return count


def single_blas_thread(fn):
    """`fn` run with one OpenBLAS thread; see the module docstring."""

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        global _open, _saved
        with _lock:
            if _open == 0:
                _saved = _set(1)
            _open += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _open -= 1
                if _open == 0 and _saved is not None:
                    _set(_saved)

    return scoped
