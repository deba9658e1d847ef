"""One chunk through every worker body.

Four bodies score chunks: the serial pool, a process worker, a socket
worker and the remote pool's local fallback.  All of them keep their
jobs in one replica table, so the same job and chunk must come back
with the same fitness, the same perf counters and, for a replica that
cannot be built, the same error; and ``release`` must drop the job's
replica on each of them.
"""

import contextlib
import queue

import pytest

from repro.parallel import EvaluatorSpec, ExecutorConfig
from repro.serve import make_shared_pool
from repro.serve.pool import encode_pool_wires
from repro.serve.remote import SharedRemotePool, WorkerServer

from .servemodels import build_serve_mlp
from .test_pool import _HELD, _candidates, _spec

BODIES = ("serial", "process", "socket", "fallback")


@contextlib.contextmanager
def _body(name, specs):
    """Yield ``(pool, results, held)`` for one worker body: ``held()``
    names the jobs the body holds a replica of."""
    results: queue.SimpleQueue = queue.SimpleQueue()
    server = None
    if name == "serial":
        pool = make_shared_pool(specs, ExecutorConfig(), results)
        held = lambda: set(pool._table.replicas)  # noqa: E731
    elif name == "process":
        pool = make_shared_pool(
            specs, ExecutorConfig("process", workers=1), results
        )
        held = lambda: set(pool._pool.apply(eval, (_HELD,)))  # noqa: E731
    elif name == "socket":
        server = WorkerServer().start()
        pool = SharedRemotePool(
            encode_pool_wires(specs), [server.address], results
        ).start()

        def held():
            with server._lock:
                sessions = list(server._sessions)
            return {job for s in sessions for job in s._table.replicas}
    else:
        # never started: with no live worker every chunk runs on the
        # pool's in-process fallback evaluator
        pool = SharedRemotePool(
            encode_pool_wires(specs), ["127.0.0.1:1"], results,
            on_fleet_death="local",
        )
        held = lambda: set(pool._fallback.replicas)  # noqa: E731
    try:
        yield pool, results, held
    finally:
        pool.close()
        if server is not None:
            server.stop()


def _run(pool, results, job, solutions):
    pool.submit(job, 0, 0, solutions)
    return results.get(timeout=60)


def _untimed(delta):
    """A perf delta without its wall-clock fields."""
    return {
        "counters": delta["counters"],
        "caches": delta["caches"],
        "timers": {k: t["count"] for k, t in delta["timers"].items()},
    }


@pytest.fixture(scope="module")
def body_specs(serve_setup):
    _, _, images = serve_setup
    good = _spec(build_serve_mlp, images)
    # the state names a parameter the model lacks: every body decodes
    # the job, then fails to build its replica
    broken = EvaluatorSpec(
        images=images, builder=build_serve_mlp,
        state={"bogus.weight": images}, stats=good.stats,
    )
    return {"good": good, "other": good, "broken": broken}


@pytest.fixture(scope="module")
def chunks(body_specs):
    """Body → (the good chunk, the broken chunk, the jobs it holds a
    replica of once ``good`` is released)."""
    solutions = _candidates(body_specs["good"], 3)
    got = {}
    for name in BODIES:
        with _body(name, body_specs) as (pool, results, held):
            good = _run(pool, results, "good", solutions)
            broken = _run(pool, results, "broken", solutions[:1])
            pool.release("good")
            _run(pool, results, "other", solutions[:1])
            got[name] = (good, broken, held())
    replica = body_specs["good"].build()
    return [replica.evaluate(s) for s in solutions], got


@pytest.mark.parametrize("name", BODIES)
def test_body_matches_the_serial_pool(chunks, name):
    expected, got = chunks
    serial_good, serial_broken, _ = got["serial"]
    good, broken, held = got[name]
    assert good.error is None, good.error
    assert good.fits == expected
    assert _untimed(good.perf_delta) == _untimed(serial_good.perf_delta)
    assert broken.fits is None and broken.perf_delta is None
    assert "failed to initialize" in broken.error
    assert "bogus.weight" in broken.error
    assert broken.error == serial_broken.error
    # the released job's replica is gone, the live job's stays
    assert held == {"other"}
