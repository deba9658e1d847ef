"""SearchScheduler: bitwise determinism vs standalone runs, fairness,
block-pipelined initialization, failure/cancellation isolation.

The scheduler's hard guarantee extends the stack's: multiplexing many
searches over one shared pool — whatever the backend, worker count, or
chunking — must not move a single bit relative to standalone
``lpq_quantize`` runs with the same seeds.
"""

import numpy as np
import pytest

from repro.parallel import ExecutorConfig
from repro.perf import reset_perf
from repro.quant import LPQConfig, LPQEngine, lpq_quantize
from repro.serve import SearchScheduler, lpq_quantize_many

from .conftest import SEARCH
from .servemodels import build_failing_cnn


def _standalone(model, images, config=SEARCH):
    reset_perf()
    return lpq_quantize(model, images, config=config)


class TestSchedulerDeterminism:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None),
        ("process", 2),
        ("process", 3),
    ])
    def test_two_jobs_bitwise_equal_standalone(
        self, serve_setup, backend, workers
    ):
        """Fairness + correctness: two heterogeneous jobs sharing one
        pool both finish, with results bitwise-equal to standalone."""
        cnn, mlp, images = serve_setup
        ref_cnn = _standalone(cnn, images)
        ref_mlp = _standalone(mlp, images)
        reset_perf()
        executor = (
            None if backend == "serial"
            else ExecutorConfig(backend, workers=workers)
        )
        results = lpq_quantize_many(
            {"cnn": cnn, "mlp": mlp}, images, config=SEARCH, executor=executor
        )
        assert sorted(results) == ["cnn", "mlp"]
        for name, ref in (("cnn", ref_cnn), ("mlp", ref_mlp)):
            got = results[name]
            assert got.solution == ref.solution
            assert got.fitness == ref.fitness
            assert got.history.best_fitness == ref.history.best_fitness
            assert got.history.mean_bits == ref.history.mean_bits
            assert got.act_params == ref.act_params
            assert got.evaluations == ref.evaluations

    def test_chunking_choice_cannot_move_results(self, serve_setup):
        """Block-pipelined initialization determinism: single-candidate
        chunks (maximal Step-1 fan-out) and maximal chunks produce the
        same trajectory as the unchunked standalone search."""
        cnn, _, images = serve_setup
        ref = _standalone(cnn, images)
        for target_chunk_s in (1e-9, 1e9):
            reset_perf()
            scheduler = SearchScheduler(
                executor=ExecutorConfig("process", workers=2),
                target_chunk_s=target_chunk_s,
            )
            scheduler.submit("cnn", cnn, images, config=SEARCH)
            results = scheduler.run()
            assert results["cnn"].solution == ref.solution
            assert results["cnn"].history.best_fitness == ref.history.best_fitness

    def test_step1_population_is_one_pipelined_batch(self, serve_setup):
        """The engine exposes Step-1 as one submittable batch whose K
        candidates the scheduler may evaluate concurrently."""
        cnn, _, images = serve_setup
        from repro.quant import collect_layer_stats

        stats = collect_layer_stats(cnn, images)
        engine = LPQEngine(None, stats.weight_log_centers, SEARCH)
        gen = engine.work_units()
        first = next(gen)
        assert len(first) == SEARCH.population
        gen.close()
        # and a forced chunk-size-1 schedule (every candidate its own
        # work unit) was proven bitwise-safe in the test above

    def test_per_job_configs_and_objectives(self, serve_setup):
        """Per-job parameter maps reach the right jobs."""
        cnn, mlp, images = serve_setup
        other = LPQConfig(
            population=3, passes=1, cycles=1, block_size=2,
            diversity_parents=2, hw_widths=(4, 8), seed=77,
        )
        reset_perf()
        ref_cnn = lpq_quantize(cnn, images, config=SEARCH, objective="mse")
        reset_perf()
        ref_mlp = lpq_quantize(mlp, images, config=other)
        reset_perf()
        results = lpq_quantize_many(
            {"cnn": cnn, "mlp": mlp},
            images,
            config={"cnn": SEARCH, "mlp": other},
            objective={"cnn": "mse", "mlp": "global_local_contrastive"},
        )
        assert results["cnn"].solution == ref_cnn.solution
        assert results["cnn"].fitness == ref_cnn.fitness
        assert results["mlp"].solution == ref_mlp.solution

    def test_iterable_models_get_default_names(self, serve_setup):
        cnn, mlp, images = serve_setup
        reset_perf()
        results = lpq_quantize_many([cnn, mlp], images, config=SEARCH)
        assert sorted(results) == ["job0", "job1"]

    def test_partial_per_job_mapping_raises(self, serve_setup):
        """A per-job mapping that misses a job must raise, not silently
        run that job on defaults (the paper-budget search)."""
        cnn, mlp, images = serve_setup
        with pytest.raises(KeyError, match="mlp"):
            lpq_quantize_many(
                {"cnn": cnn, "mlp": mlp}, images, config={"cnn": SEARCH}
            )


class TestSchedulerLifecycle:
    def test_failing_job_isolated_from_healthy_job(self, serve_setup):
        """Failure of one job must not poison the shared pool: the
        healthy job completes bitwise-clean, the failed job's handle
        carries the worker traceback."""
        cnn, _, images = serve_setup
        ref = _standalone(cnn, images)
        reset_perf()
        scheduler = SearchScheduler(
            executor=ExecutorConfig("process", workers=2)
        )
        good = scheduler.submit("good", cnn, images, config=SEARCH)
        bad_model = build_failing_cnn()
        bad_model.eval()
        bad = scheduler.submit("bad", bad_model, images, config=SEARCH)
        results = scheduler.run()
        assert good.done
        assert results["good"].solution == ref.solution
        assert results["good"].fitness == ref.fitness
        assert bad.failed and not bad.done
        assert "injected failure" in bad.error
        assert "bad" not in results
        with pytest.raises(RuntimeError, match="failed"):
            bad.result()

    def test_lpq_quantize_many_raises_on_failure(self, serve_setup):
        _, _, images = serve_setup
        bad_model = build_failing_cnn()
        bad_model.eval()
        with pytest.raises(RuntimeError, match="injected failure"):
            lpq_quantize_many({"bad": bad_model}, images, config=SEARCH)

    def test_cancelled_job_skipped_others_run(self, serve_setup):
        cnn, mlp, images = serve_setup
        ref = _standalone(cnn, images)
        reset_perf()
        scheduler = SearchScheduler()
        keep = scheduler.submit("keep", cnn, images, config=SEARCH)
        drop = scheduler.submit("drop", mlp, images, config=SEARCH)
        drop.cancel()
        results = scheduler.run()
        assert keep.done and drop.cancelled
        assert sorted(results) == ["keep"]
        assert results["keep"].solution == ref.solution
        with pytest.raises(RuntimeError, match="cancelled"):
            drop.result()

    def test_rerun_picks_up_new_jobs_only(self, serve_setup):
        cnn, mlp, images = serve_setup
        reset_perf()
        scheduler = SearchScheduler()
        scheduler.submit("first", cnn, images, config=SEARCH)
        first = scheduler.run()
        assert sorted(first) == ["first"]
        scheduler.submit("second", mlp, images, config=SEARCH)
        second = scheduler.run()
        assert sorted(second) == ["second"]
        assert scheduler.handles["first"].done
        assert second["second"].solution == _standalone(mlp, images).solution

    def test_max_active_jobs_runs_jobs_in_turn(self, serve_setup):
        """A bound of one runs the jobs one after another in submission
        order — a failing job frees its slot too — with every result
        bitwise-equal to the unbounded run."""
        cnn, mlp, images = serve_setup
        bad_model = build_failing_cnn()
        bad_model.eval()
        jobs = {"a": cnn, "bad": bad_model, "b": mlp, "c": cnn}
        runs = {}
        for bound in (None, 1):
            reset_perf()
            order = []
            scheduler = SearchScheduler(
                executor=ExecutorConfig("process", workers=2),
                max_active_jobs=bound,
                on_batch=lambda name, info: order.append(name),
                on_finished=lambda name, handle: order.append(name),
            )
            for name, model in jobs.items():
                scheduler.submit(name, model, images, config=SEARCH)
            runs[bound] = scheduler.run()
            assert scheduler.handles["bad"].failed
        assert sorted(runs[1]) == ["a", "b", "c"]
        for name in ("a", "b", "c"):
            assert runs[1][name].solution == runs[None][name].solution
            assert runs[1][name].fitness == runs[None][name].fitness
            assert (runs[1][name].history.best_fitness
                    == runs[None][name].history.best_fitness)
        # the last run's events: each job's, uninterrupted, in turn
        assert [k for i, k in enumerate(order)
                if i == 0 or order[i - 1] != k] == ["a", "bad", "b", "c"]
        with pytest.raises(ValueError, match="max_active_jobs"):
            SearchScheduler(max_active_jobs=0)

    def test_submit_validation(self, serve_setup):
        cnn, _, images = serve_setup
        scheduler = SearchScheduler()
        scheduler.submit("dup", cnn, images, config=SEARCH)
        with pytest.raises(ValueError, match="duplicate"):
            scheduler.submit("dup", cnn, images, config=SEARCH)
        with pytest.raises(ValueError, match="calib_images"):
            scheduler.submit("no-images", cnn)
        with pytest.raises(ValueError, match="objective"):
            scheduler.submit("bad-obj", cnn, images, objective="nope")
        with pytest.raises(ValueError, match="exactly one"):
            scheduler.submit("no-model", calib_images=images)
        handle = scheduler.handles["dup"]
        with pytest.raises(RuntimeError, match="not run yet"):
            handle.result()

    def test_job_perf_merged_into_ambient_registry(self, serve_setup):
        """Worker cache traffic and engine counters must reach the
        ambient registry once the job finishes — a multi-job fan-out
        must not lose observability."""
        cnn, _, images = serve_setup
        perf = reset_perf()
        scheduler = SearchScheduler()
        handle = scheduler.submit("cnn", cnn, images, config=SEARCH)
        scheduler.run()
        # the per-job future carries the job's own merged snapshot
        assert handle.perf is not None
        assert handle.perf["counters"]["serve.batches"] > 0
        assert handle.perf["caches"]["quant.weight_cache"]["misses"] > 0
        snap = perf.snapshot()
        assert snap["counters"]["lpq.candidates"] > 0
        assert snap["caches"]["quant.weight_cache"]["misses"] > 0
        assert snap["counters"]["serve.batches"] > 0
        assert snap["counters"]["serve.chunks"] >= snap["counters"]["serve.batches"]


class TestAdaptiveChunking:
    def test_first_batch_single_candidate_chunks(self, serve_setup):
        """Until a job has a cost estimate, chunks are single candidates
        (maximal fan-out + timing seed); afterwards the chunker respects
        the target chunk cost."""
        cnn, _, images = serve_setup
        scheduler = SearchScheduler(target_chunk_s=0.5)
        handle = scheduler.submit("cnn", cnn, images, config=SEARCH)
        state = scheduler._jobs["cnn"]
        unique = list(range(6))
        assert [len(c) for c in scheduler._chunks(state, unique, 2)] == [1] * 6
        state.cost_est = 0.01  # cheap: want big chunks, capped by workers
        assert [len(c) for c in scheduler._chunks(state, unique, 2)] == [3, 3]
        state.cost_est = 10.0  # expensive: one candidate per chunk
        assert [len(c) for c in scheduler._chunks(state, unique, 2)] == [1] * 6
        assert not handle.finished

    def test_cost_estimate_updates_from_results(self, serve_setup):
        from repro.serve.pool import ChunkResult

        cnn, _, images = serve_setup
        scheduler = SearchScheduler()
        scheduler.submit("cnn", cnn, images, config=SEARCH)
        state = scheduler._jobs["cnn"]
        scheduler._update_cost(
            state, ChunkResult("cnn", 0, 0, [1.0, 2.0], {}, 1.0)
        )
        assert state.cost_est == pytest.approx(0.5)
        scheduler._update_cost(
            state, ChunkResult("cnn", 0, 1, [1.0], {}, 1.5)
        )
        assert state.cost_est == pytest.approx(1.0)


class TestSchedulerStats:
    """``stats()`` — the advisory snapshot the daemon's ``fleet_status``
    op is built on (ISSUE 9 satellite 1)."""

    def test_stats_before_and_after_run(self, serve_setup):
        cnn, mlp, images = serve_setup
        scheduler = SearchScheduler(
            executor=ExecutorConfig("process", workers=2)
        )
        scheduler.submit("cnn", cnn, images, config=SEARCH)
        scheduler.submit("mlp", mlp, images, config=SEARCH)
        before = scheduler.stats()
        assert set(before) == {"jobs", "queue_depth", "workers", "fleet"}
        assert set(before["jobs"]) == {"cnn", "mlp"}
        for job in before["jobs"].values():
            assert job["state"] == "pending"
            assert job["chunks_outstanding"] == 0
            assert job["evaluations"] == 0
        # no pool outside run(): parallelism reads as zero, fleet empty
        assert before["workers"] == 0 and before["fleet"] == []

        results = scheduler.run()
        after = scheduler.stats()
        assert sorted(results) == ["cnn", "mlp"]
        for name, job in after["jobs"].items():
            assert job["state"] == "done"
            assert job["evaluations"] == results[name].evaluations
            assert 0 < job["computed_evaluations"] <= job["evaluations"]
        # finished jobs contribute nothing to the queue
        assert after["queue_depth"] == 0
        # the run-scoped pool was torn down again
        assert after["workers"] == 0 and after["fleet"] == []

    def test_stats_mid_run_sees_live_pool(self, serve_setup):
        """Sampled from a progress callback (exactly how the daemon's
        emitter reads it): running state, live worker parallelism."""
        cnn, _, images = serve_setup
        seen: list[dict] = []
        scheduler = SearchScheduler(
            executor=ExecutorConfig("process", workers=2),
            on_batch=lambda name, info: seen.append(scheduler.stats()),
        )
        scheduler.submit("cnn", cnn, images, config=SEARCH)
        scheduler.run()
        assert seen, "progress callback never fired"
        mid = seen[0]
        # handles report terminal states only: mid-run is still pending
        assert mid["jobs"]["cnn"]["state"] == "pending"
        assert mid["workers"] == 2  # the live pool's parallelism
        assert any(s["jobs"]["cnn"]["evaluations"] > 0 for s in seen)

    def test_stats_is_plain_json(self, serve_setup):
        import json

        cnn, _, images = serve_setup
        scheduler = SearchScheduler()
        scheduler.submit("cnn", cnn, images, config=SEARCH)
        scheduler.run()
        stats = scheduler.stats()
        assert json.loads(json.dumps(stats)) == stats


class TestContinuousAdmission:
    """``submit()`` from another thread while ``run()`` runs: the job
    joins that run, starts in priority order under the cap, and a
    finished job keeps only its handle and counters."""

    @pytest.mark.parametrize("backend", ["serial", "process", "remote"])
    def test_job_submitted_mid_run_joins_it(self, serve_setup, backend):
        """A live-model job added to the running pool: its tensors reach
        the workers with its tasks (process) or through ``blob_get``
        (remote)."""
        import contextlib
        import threading

        from repro.serve.remote import local_worker_fleet

        cnn, mlp, images = serve_setup
        refs = {"first": _standalone(cnn, images),
                "late": _standalone(mlp, images)}
        reset_perf()
        started, seen = [], []

        def on_batch(name, info):
            if name == "first" and info["seq"] == 0:
                # another thread submits while run() is running
                thread = threading.Thread(
                    target=scheduler.submit, args=("late", mlp, images),
                    kwargs={"config": SEARCH},
                )
                thread.start()
                thread.join(60.0)
            seen.append(scheduler.stats())

        with contextlib.ExitStack() as stack:
            if backend == "remote":
                addresses = stack.enter_context(local_worker_fleet(2))
                executor = ExecutorConfig("remote", addresses=addresses)
            else:
                executor = ExecutorConfig(
                    backend, workers=2 if backend == "process" else None)
            scheduler = SearchScheduler(executor=executor,
                                        on_started=started.append,
                                        on_batch=on_batch)
            scheduler.submit("first", cnn, images, config=SEARCH)
            results = scheduler.run()
        assert started == ["first", "late"]
        assert sorted(results) == ["first", "late"]
        for name, ref in refs.items():
            assert results[name].solution == ref.solution
            assert results[name].fitness == ref.fitness
            assert (results[name].history.best_fitness
                    == ref.history.best_fitness)
        # the late job ran alongside the first, not after it
        assert any(s["jobs"]["first"]["state"] == "pending"
                   and s["jobs"].get("late", {}).get("evaluations")
                   for s in seen)

    def test_priority_and_cap_order_the_starts(self, serve_setup):
        cnn, mlp, images = serve_setup
        started = []
        scheduler = SearchScheduler(max_active_jobs=1,
                                    on_started=started.append)
        scheduler.submit("low", cnn, images, config=SEARCH)
        scheduler.submit("high", mlp, images, config=SEARCH, priority=5)
        scheduler.submit("mid", cnn, images, config=SEARCH, priority=1)
        scheduler.run()
        assert started == ["high", "mid", "low"]

    def test_finished_job_keeps_only_handle_and_counters(self,
                                                        serve_setup):
        cnn, _, images = serve_setup
        scheduler = SearchScheduler()
        handle = scheduler.submit("cnn", cnn, images, config=SEARCH)
        result = scheduler.run()["cnn"]
        st = scheduler._jobs["cnn"]
        assert st.handle is handle and handle.done
        assert st.spec is None and st.engine is None and st.gen is None
        assert st.search is None and st.stats is None and st.perf is None
        assert st.chunk_fits == {} and st.event_snap is None
        assert st.evaluations == result.evaluations
        assert scheduler.stats()["jobs"]["cnn"]["evaluations"] \
            == result.evaluations

