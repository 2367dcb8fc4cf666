"""Settings of the native libraries under numpy: BLAS threads and the
C allocator.

Two costs of the Monte Carlo loop sit below Python.

BLAS threads. The integrands make small GEMMs per block: a block's rows
against a factor of a few dozen columns. OpenBLAS splits a GEMM of that
size over every CPU, which gains little and makes the call wait on its
slowest thread, while the idle workers spin between calls and keep a second
CPU busy for the whole run. ``single_blas_thread()`` runs a block with
OpenBLAS at one thread and then restores the previous count. The engine
holds it for a whole run, whose blocks run on worker threads, one per CPU:
the count is process-wide, so every worker's BLAS calls run on one thread
and the parallelism is the engine's, one block per CPU. The MI and
canonical-entropy estimators hold it from their set-up (eigendecompositions
and the control means) through the control fit, and the command line runs
each command inside it.

Page faults. glibc hands a freed block back to the kernel when it was
mapped on its own or leaves enough free memory at the top of the heap, and
its dynamic thresholds grow only up to the size of the blocks already
freed. A block's arrays, megabytes for the wide joint kernels, cross those
thresholds again and again, so every block would fault its arrays back in.
``keep_freed_memory()`` fixes the thresholds at the largest values the
dynamic rule reaches (mmap above 32 MiB, trim above 64 MiB).
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _find_setter():
    """OpenBLAS's thread-count setter as linked into numpy, or None.

    The setter takes a count and returns the previous one. It is looked up
    through numpy's extension module, whose dependencies include its BLAS.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        setter = ctypes.CDLL(umath.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


_set_threads = _find_setter()
_lock = threading.Lock()
_depth = 0
_saved = 0


@contextmanager
def single_blas_thread():
    """Run the block with one OpenBLAS thread; restore the count after.

    The count is process-wide, so blocks entered from several threads share
    one reference count and the last to leave restores it. Where numpy's
    BLAS has no ``openblas_set_num_threads_local`` (another BLAS, or
    OpenBLAS before 0.3.27) the block runs unchanged.
    """
    global _depth, _saved
    if _set_threads is None:
        yield
        return
    with _lock:
        if _depth == 0:
            _saved = _set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                _set_threads(_saved)


def keep_freed_memory() -> bool:
    """Keep freed blocks below 32 MiB in the process's heap; True if set.

    The setting is process-wide and lasts, so the command line makes it for
    its own process and the library never does. A C library without glibc's
    ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )
