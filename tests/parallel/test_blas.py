"""One BLAS thread per process-pool worker; the caller keeps its own."""

import io

import pytest

from repro.parallel import ExecutorConfig, make_executor
from repro.parallel._blas import (
    _openblas,
    blas_corename,
    blas_threads,
    one_blas_thread,
)
from repro.perf import PerfRegistry
from repro.quant import LPQConfig, lpq_quantize

from .._blas import START_METHODS, requires_openblas
from .._blas import two_caller_threads  # noqa: F401
from .test_executor import _spec


@requires_openblas
@pytest.mark.parametrize("start_method", START_METHODS)
def test_process_executor_worker_runs_one_blas_thread(
    par_setup, two_caller_threads, start_method  # noqa: F811
):
    executor = make_executor(
        _spec(par_setup),
        ExecutorConfig("process", workers=1, start_method=start_method),
        PerfRegistry(),
    )
    try:
        assert executor._pool.apply(blas_threads) == 1
    finally:
        executor.close()
    assert blas_threads() == two_caller_threads


@requires_openblas
@pytest.mark.parametrize("start_method", START_METHODS)
def test_process_lpq_quantize_leaves_caller_count(
    par_setup, two_caller_threads, start_method  # noqa: F811
):
    model, images, _ = par_setup
    config = LPQConfig(population=3, passes=1, cycles=1, block_size=2,
                       diversity_parents=2, hw_widths=(4, 8), seed=5)
    lpq_quantize(
        model, images, config=config, objective="mse",
        executor=ExecutorConfig("process", workers=2,
                                start_method=start_method),
    )
    assert blas_threads() == two_caller_threads


@requires_openblas
def test_repeat_call_leaves_a_one_thread_pool_alone(
    two_caller_threads, monkeypatch  # noqa: F811
):
    one_blas_thread()
    assert blas_threads() == 1
    get, _ = _openblas()

    def refuse(count):
        raise AssertionError(f"set_num_threads({count}) on a capped pool")

    monkeypatch.setattr(
        "repro.parallel._blas._openblas", lambda: (get, refuse)
    )
    one_blas_thread()


@pytest.fixture()
def unresolved():
    """Forget the resolved handles for one test; the next call after it
    resolves them anew, so a patched ``open`` never leaks into the
    cache."""
    _openblas.cache_clear()
    yield
    _openblas.cache_clear()


def test_no_openblas_mapped_is_a_no_op(unresolved, monkeypatch):
    maps = "00400000-00452000 r-xp 00000000 08:02 173521 /usr/bin/python\n"
    monkeypatch.setattr("builtins.open", lambda *a, **k: io.StringIO(maps))
    assert blas_threads() is None
    assert blas_corename.__wrapped__() is None
    one_blas_thread()


def test_unreadable_maps_is_a_no_op(unresolved, monkeypatch):
    def unreadable(*args, **kwargs):
        raise PermissionError("/proc/self/maps")

    monkeypatch.setattr("builtins.open", unreadable)
    assert blas_threads() is None
    one_blas_thread()
