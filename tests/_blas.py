"""Shared BLAS-thread fixtures for the worker-cap tests.

``tests/parallel/test_blas.py`` and ``tests/serve/test_worker_blas.py``
raise the caller's OpenBLAS count to two while workers start, so a
forked worker that merely inherited a count of one cannot pass, on any
core count.  Worker counts are compared with the policy (1), caller
counts with the count read before.
"""

import multiprocessing

import pytest

from repro.parallel._blas import _openblas, blas_threads

START_METHODS = [
    method for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]

requires_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="numpy's BLAS is not OpenBLAS"
)


@pytest.fixture()
def two_caller_threads():
    """Run the calling process's BLAS on two threads for one test, then
    restore the count it had."""
    before = blas_threads()
    _openblas()[1](2)
    yield 2
    _openblas()[1](before)
