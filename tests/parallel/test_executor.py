"""Executor backends: replicas, ordering, memoisation, perf merging."""

import pickle

import pytest

from repro.parallel import (
    EvaluatorSpec,
    ExecutorConfig,
    PopulationEvaluator,
    make_executor,
)
from repro.perf import PerfRegistry, diff_snapshots, reset_perf

from .parmodels import build_par_model


def _spec(par_setup, **kwargs):
    model, images, stats = par_setup
    kwargs.setdefault("images", images)
    kwargs.setdefault("stats", stats)
    if "builder" not in kwargs:
        kwargs.setdefault("model", model)
    return EvaluatorSpec(**kwargs)


class TestExecutorConfig:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ExecutorConfig(backend="gpu")

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            ExecutorConfig(workers=0)

    def test_default_workers_positive(self):
        assert ExecutorConfig().resolved_workers() >= 1


class TestEvaluatorSpec:
    def test_requires_exactly_one_model_source(self, par_setup):
        model, images, _ = par_setup
        with pytest.raises(ValueError):
            EvaluatorSpec(images=images)
        with pytest.raises(ValueError):
            EvaluatorSpec(images=images, model=model, builder=build_par_model)

    def test_spec_with_builder_and_state_pickles(self, par_setup):
        model, images, stats = par_setup
        spec = EvaluatorSpec(
            images=images,
            builder=build_par_model,
            state=model.state_dict(),
            stats=stats,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.builder is build_par_model

    def test_spec_with_model_instance_pickles(self, par_setup):
        spec = _spec(par_setup)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.model is not spec.model

    def test_replicas_from_builder_and_model_agree(
        self, par_setup, candidates
    ):
        model, images, stats = par_setup
        from_model = _spec(par_setup).build(copy_model=True)
        from_builder = EvaluatorSpec(
            images=images,
            builder=build_par_model,
            state=model.state_dict(),
            stats=stats,
        ).build()
        for sol in candidates:
            assert from_model.evaluate(sol) == from_builder.evaluate(sol)


class TestBackendsAgree:
    def _serial_scores(self, par_setup, candidates):
        executor = make_executor(
            _spec(par_setup), ExecutorConfig("serial"), PerfRegistry()
        )
        return executor.evaluate_batch(candidates)

    @pytest.mark.parametrize("backend", ["process"])
    def test_backend_matches_serial_in_order(
        self, par_setup, candidates, backend
    ):
        expected = self._serial_scores(par_setup, candidates)
        executor = make_executor(
            _spec(par_setup),
            ExecutorConfig(backend, workers=2),
            PerfRegistry(),
        )
        try:
            assert executor.evaluate_batch(candidates) == expected
            # a second batch reuses warm worker caches; values must not move
            assert executor.evaluate_batch(candidates) == expected
        finally:
            executor.close()

    def test_broken_spec_raises_instead_of_hanging(self, par_setup):
        """A spec whose replica build fails in the worker must surface a
        RuntimeError on the first task, not hang the pool."""
        from .parmodels import build_par_model

        model, images, stats = par_setup
        bad_state = {"bogus.weight": images}  # guaranteed load failure
        spec = EvaluatorSpec(
            images=images, builder=build_par_model, state=bad_state,
            stats=stats,
        )
        executor = make_executor(
            spec, ExecutorConfig("process", workers=1), PerfRegistry()
        )
        try:
            with pytest.raises(RuntimeError, match="failed to initialize"):
                executor.evaluate_batch([None])
        finally:
            executor.close()

    def test_single_worker_process_backend(self, par_setup, candidates):
        expected = self._serial_scores(par_setup, candidates)
        executor = make_executor(
            _spec(par_setup), ExecutorConfig("process", workers=1),
            PerfRegistry(),
        )
        try:
            assert executor.evaluate_batch(candidates) == expected
        finally:
            executor.close()


class TestPerfMerging:
    def test_worker_cache_traffic_reaches_main_registry(
        self, par_setup, candidates
    ):
        perf = reset_perf()
        with PopulationEvaluator(
            _spec(par_setup), ExecutorConfig("process", workers=2)
        ) as evaluator:
            evaluator.evaluate_many(candidates)
        snap = perf.snapshot()
        # the replicas' evaluation timers and cache stats must have been
        # merged back — a fan-out must not lose observability
        assert snap["timers"]["fitness.evaluate"]["count"] == len(candidates)
        assert snap["caches"]["quant.weight_cache"]["misses"] > 0
        # zero-delta counters are elided from the merged snapshot
        assert snap["counters"].get("replay.layers_reused", 0) >= 0

    def test_diff_snapshots_roundtrip(self):
        a = PerfRegistry()
        a.counter("c").inc(3)
        a.cache("k").hit(2)
        with a.timer("t").time():
            pass
        before = a.snapshot()
        a.counter("c").inc(4)
        a.cache("k").miss()
        delta = diff_snapshots(a.snapshot(), before)
        assert delta["counters"]["c"] == 4
        assert delta["caches"]["k"]["misses"] == 1
        assert delta["caches"]["k"]["hits"] == 0
        merged = PerfRegistry()
        merged.merge_snapshot(before)
        merged.merge_snapshot(delta)
        assert merged.counter("c").value == 7
        assert merged.cache("k").hits == 2
        assert merged.cache("k").misses == 1
        assert merged.timer("t").count == 1


class TestPopulationEvaluator:
    def test_memo_dedupes_within_and_across_batches(
        self, par_setup, candidates
    ):
        reset_perf()
        with PopulationEvaluator(_spec(par_setup)) as evaluator:
            batch = [candidates[0], candidates[1], candidates[0]]
            first = evaluator.evaluate_many(batch)
            assert first[0] == first[2]
            assert evaluator.computed_evaluations == 2
            assert evaluator.evaluations == 3
            again = evaluator.evaluate_many([candidates[1]])
            assert again == [first[1]]
            assert evaluator.computed_evaluations == 2  # memo hit
            assert evaluator.evaluations == 4

    def test_call_interface_matches_batch(self, par_setup, candidates):
        reset_perf()
        with PopulationEvaluator(_spec(par_setup)) as evaluator:
            assert evaluator(candidates[0]) == evaluator.evaluate_many(
                [candidates[0]]
            )[0]

    def test_rejects_external_act_params(self, par_setup, candidates):
        reset_perf()
        with PopulationEvaluator(_spec(par_setup)) as evaluator:
            with pytest.raises(ValueError):
                evaluator(candidates[0], act_params=[])

    def test_objective_spec_builds_output_evaluator(
        self, par_setup, candidates
    ):
        import numpy as np

        reset_perf()
        with PopulationEvaluator(
            _spec(par_setup, objective="mse")
        ) as evaluator:
            assert np.isfinite(evaluator(candidates[0]))
