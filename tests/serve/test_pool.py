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
