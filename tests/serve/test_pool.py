"""Shared multi-job pools: tagging, multi-job replicas, error isolation."""

import queue

import pytest

from repro.parallel import EvaluatorSpec, ExecutorConfig
from repro.quant import collect_layer_stats, random_solution
from repro.serve import make_shared_pool

from .servemodels import build_failing_cnn, build_serve_cnn, build_serve_mlp


def _spec(builder, images):
    model = builder()
    model.eval()
    stats = collect_layer_stats(model, images)
    return EvaluatorSpec(
        images=images, builder=builder, state=model.state_dict(), stats=stats
    )


def _candidates(spec, n, seed=3):
    import numpy as np

    rng = np.random.default_rng(seed)
    stats = spec.stats
    return [
        random_solution(rng, len(stats), stats.weight_log_centers, (4, 8))
        for _ in range(n)
    ]


def _drain(results, count):
    return [results.get(timeout=60) for _ in range(count)]


@pytest.fixture(scope="module")
def two_specs(serve_setup):
    _, _, images = serve_setup
    return {
        "cnn": _spec(build_serve_cnn, images),
        "mlp": _spec(build_serve_mlp, images),
    }


class TestSharedPools:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None),
        ("process", 2),
    ])
    def test_two_jobs_tagged_results(self, two_specs, backend, workers):
        """Chunks from two jobs on one pool come back correctly tagged
        and score identically to a dedicated single-job replica."""
        expected = {}
        for name, spec in two_specs.items():
            replica = spec.build()
            expected[name] = [
                replica.evaluate(sol) for sol in _candidates(spec, 4)
            ]
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = make_shared_pool(
            two_specs, ExecutorConfig(backend, workers=workers), results
        )
        try:
            for name, spec in two_specs.items():
                cands = _candidates(spec, 4)
                pool.submit(name, 0, 0, cands[:2])
                pool.submit(name, 0, 1, cands[2:])
            got = _drain(results, 4)
        finally:
            pool.close()
        by_tag = {(r.job, r.chunk): r for r in got}
        assert len(by_tag) == 4
        for name in two_specs:
            first = by_tag[(name, 0)]
            second = by_tag[(name, 1)]
            assert first.error is None and second.error is None
            assert first.fits + second.fits == expected[name]
            assert first.elapsed > 0
            # the worker ships a perf delta for exactly its chunk
            assert first.perf_delta["timers"]["fitness.evaluate"]["count"] == 2

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_failing_job_does_not_poison_pool(self, two_specs, backend):
        """A replica that raises fails its own chunk; the same pool (and
        for process the same workers) keeps serving other jobs."""
        images = two_specs["cnn"].images
        specs = dict(two_specs)
        specs["bad"] = _spec(build_failing_cnn, images)
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = make_shared_pool(
            specs, ExecutorConfig(backend, workers=2), results
        )
        try:
            bad_cands = _candidates(specs["bad"], 2)
            pool.submit("bad", 0, 0, bad_cands)
            (bad,) = _drain(results, 1)
            assert bad.job == "bad"
            assert bad.fits is None
            assert "injected failure" in bad.error
            # the pool must still evaluate the healthy job afterwards
            good_cands = _candidates(specs["cnn"], 3)
            pool.submit("cnn", 0, 0, good_cands)
            (good,) = _drain(results, 1)
            assert good.error is None
            replica = specs["cnn"].build()
            assert good.fits == [replica.evaluate(s) for s in good_cands]
        finally:
            pool.close()


#: evaluated in a pool worker: the jobs it holds a replica for
_HELD = ("sorted(__import__('repro.parallel.executor', "
         "fromlist=['_WORKER_TABLE'])._WORKER_TABLE.replicas)")


class TestReleasedJobs:
    """A pool keeps replicas for the jobs in flight only: a finished
    job's replica is dropped, so a long sweep does not grow a worker by
    one model copy per job it has served."""

    def test_process_worker_drops_released_replicas(self, two_specs):
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = make_shared_pool(
            two_specs, ExecutorConfig("process", workers=1), results
        )
        try:
            pool.submit("cnn", 0, 0, _candidates(two_specs["cnn"], 1))
            _drain(results, 1)
            assert pool._pool.apply(eval, (_HELD,)) == ["cnn"]
            pool.release("cnn")
            cands = _candidates(two_specs["mlp"], 2)
            pool.submit("mlp", 0, 0, cands)
            (res,) = _drain(results, 1)
            assert pool._pool.apply(eval, (_HELD,)) == ["mlp"]
        finally:
            pool.close()
        replica = two_specs["mlp"].build()
        assert res.fits == [replica.evaluate(s) for s in cands]

    def test_serial_pool_drops_released_replica(self, two_specs):
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = make_shared_pool(two_specs, ExecutorConfig(), results)
        pool.submit("cnn", 0, 0, _candidates(two_specs["cnn"], 1))
        _drain(results, 1)
        pool.release("cnn")
        assert pool._table.replicas == {}

    def test_scheduler_releases_each_finished_job(self, serve_setup,
                                                  monkeypatch):
        from repro.quant import LPQConfig
        from repro.serve import SearchScheduler
        from repro.serve.pool import SharedSerialPool

        released = []
        real = SharedSerialPool.release
        monkeypatch.setattr(
            SharedSerialPool, "release",
            lambda self, job: (released.append(job), real(self, job)),
        )
        cnn, mlp, images = serve_setup
        config = LPQConfig(population=4, passes=1, cycles=1, block_size=2,
                           diversity_parents=2, hw_widths=(4, 8))
        scheduler = SearchScheduler()
        scheduler.submit("a", cnn, images, config=config)
        scheduler.submit("b", mlp, images, config=config)
        scheduler.run()
        assert sorted(released) == ["a", "b"]

    def test_bounded_scheduler_worker_holds_active_jobs_only(
            self, serve_setup):
        """With ``max_active_jobs=1`` a sweep's worker holds one replica
        at a time, not one per job the sweep has started."""
        from repro.quant import LPQConfig
        from repro.serve import SearchScheduler

        cnn, mlp, images = serve_setup
        config = LPQConfig(population=4, passes=1, cycles=1, block_size=2,
                           diversity_parents=2, hw_widths=(4, 8))
        held = []
        scheduler = SearchScheduler(
            ExecutorConfig("process", workers=1), max_active_jobs=1,
            on_batch=lambda name, info: held.append(
                scheduler._pool._pool.apply(eval, (_HELD,))),
        )
        for name, model in (("a", cnn), ("b", mlp), ("c", cnn)):
            scheduler.submit(name, model, images, config=config)
        results = scheduler.run()
        assert sorted(results) == ["a", "b", "c"]
        assert max(len(jobs) for jobs in held) == 1
        assert [jobs[0] for jobs in held] == sorted(jobs[0] for jobs in held)
