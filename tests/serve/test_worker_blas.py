"""Shared-pool and socket workers run their BLAS on one thread; the
caller keeps its own (see ``tests/_blas.py``)."""

import multiprocessing
import queue

import pytest

from repro.parallel._blas import blas_threads
from repro.serve.pool import SharedProcessPool

from .._blas import START_METHODS, requires_openblas
from .._blas import two_caller_threads  # noqa: F401

pytestmark = requires_openblas


def _serve_and_report(conn) -> None:
    """Body of a worker process: start a ``WorkerServer``, report the
    process's BLAS thread count, stop when told to."""
    from repro.serve.remote import WorkerServer

    server = WorkerServer().start()
    try:
        conn.send(blas_threads())
        conn.recv()
    finally:
        server.stop()


@pytest.mark.parametrize("start_method", START_METHODS)
def test_shared_pool_worker_runs_one_blas_thread(
    two_caller_threads, start_method  # noqa: F811
):
    pool = SharedProcessPool(
        {}, 1, queue.SimpleQueue(), start_method=start_method
    )
    try:
        assert pool._pool.apply(blas_threads) == 1
    finally:
        pool.close()
    assert blas_threads() == two_caller_threads


@pytest.mark.parametrize("start_method", START_METHODS)
def test_worker_server_process_runs_one_blas_thread(
    two_caller_threads, start_method  # noqa: F811
):
    ctx = multiprocessing.get_context(start_method)
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_serve_and_report, args=(child,), daemon=True)
    proc.start()
    child.close()
    try:
        assert parent.poll(60), "worker process did not report"
        assert parent.recv() == 1
        parent.send("stop")
    finally:
        parent.close()
        proc.join(30)
        if proc.is_alive():
            proc.terminate()
            proc.join()
    assert proc.exitcode == 0
    assert blas_threads() == two_caller_threads
