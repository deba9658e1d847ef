"""One BLAS thread per evaluation worker.

An evaluation worker (a process-pool worker or a socket worker) scores
one candidate chunk at a time, so parallelism comes from the number of
workers.  OpenBLAS still starts one thread per core in every process
that loads it: N workers on N cores would run N² BLAS threads.  Each
worker therefore runs its BLAS on one thread; the process that starts
the workers keeps whatever count it had.

threadpoolctl is not a dependency, so the OpenBLAS numpy loaded is
found through ``/proc/self/maps`` and driven through ``ctypes``.  The
call runs after numpy is imported, so one path covers fork, spawn and
socket workers.  With another BLAS vendor, or without ``/proc``, the
functions here do nothing and report ``None``.
"""

from __future__ import annotations

import ctypes
import functools

#: (get threads, set threads, core name) symbols: plain OpenBLAS,
#: numpy's bundled scipy-openblas (64-bit ints), and a plain 64-bit-int
#: build
_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads",
     "openblas_get_corename"),
    ("scipy_openblas_get_num_threads64_",
     "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_corename64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_",
     "openblas_get_corename64_"),
)


def _mapped_openblas():
    """``(library, symbol names)`` of the OpenBLAS mapped into this
    process, or ``None``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _SYMBOLS:
            if all(hasattr(lib, name) for name in names[:2]):
                return lib, names
    return None


@functools.cache
def _openblas():
    """``(get, set)`` thread-count functions of the OpenBLAS mapped into
    this process, or ``None``.  Resolved once per process (a forked
    child inherits the handles, which stay valid in its copy of the
    address space)."""
    found = _mapped_openblas()
    if found is None:
        return None
    lib, (get_name, set_name, _) = found
    get, set_ = getattr(lib, get_name), getattr(lib, set_name)
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@functools.cache
def blas_corename() -> str | None:
    """The CPU kernel set this process's OpenBLAS dispatched to (e.g.
    ``"SkylakeX"``; ``OPENBLAS_CORETYPE`` overrides it), or ``None``."""
    found = _mapped_openblas()
    if found is None:
        return None
    lib, names = found
    corename = getattr(lib, names[2], None)
    if corename is None:
        return None
    corename.restype, corename.argtypes = ctypes.c_char_p, []
    return corename().decode("ascii", "replace")


def blas_threads() -> int | None:
    """This process's OpenBLAS thread count (``None``: no OpenBLAS)."""
    fns = _openblas()
    return None if fns is None else int(fns[0]())


def one_blas_thread() -> None:
    """Run this process's OpenBLAS on one thread.

    Reads the count first and sets it only when it differs, so repeat
    calls never touch the pool: an in-process fleet can start more
    workers while other threads are inside a GEMM.  An in-process fleet
    shares its host's BLAS, so starting one caps the host too.
    """
    fns = _openblas()
    if fns is not None and fns[0]() != 1:
        fns[1](1)
