"""Perf-counter subsystem (repro.perf)."""

import threading
import time

from repro.perf import PerfRegistry, diff_snapshots, get_perf, reset_perf


class TestPrimitives:
    def test_counter_accumulates(self):
        reg = PerfRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.counter("a").value == 5

    def test_timer_accumulates_wall_clock(self):
        reg = PerfRegistry()
        with reg.timer("t").time():
            time.sleep(0.01)
        with reg.timer("t").time():
            pass
        t = reg.timer("t")
        assert t.count == 2
        assert t.total >= 0.01
        assert t.mean == t.total / 2

    def test_cache_stats_hit_rate(self):
        reg = PerfRegistry()
        s = reg.cache("c")
        s.hit(3)
        s.miss()
        assert s.lookups == 4
        assert s.hit_rate == 0.75
        s.evict()
        assert s.evictions == 1

    def test_empty_cache_hit_rate_is_zero(self):
        assert PerfRegistry().cache("x").hit_rate == 0.0


class TestRegistry:
    def test_snapshot_is_json_serialisable(self):
        import json

        reg = PerfRegistry()
        reg.counter("n").inc()
        with reg.timer("t").time():
            pass
        reg.cache("c").hit()
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"]["n"] == 1
        assert snap["timers"]["t"]["count"] == 1
        assert snap["caches"]["c"]["hits"] == 1

    def test_report_mentions_all_sections(self):
        reg = PerfRegistry()
        reg.counter("evals").inc()
        with reg.timer("step").time():
            pass
        reg.cache("memo").miss()
        report = reg.report()
        for token in ("evals", "step", "memo", "hit rate"):
            assert token in report

    def test_reset_clears_state(self):
        reg = PerfRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "timers": {}, "caches": {}}

    def test_delta_carries_new_names_at_zero(self):
        """A merged delta names every metric the source created, so a
        replica's zero counter reaches the caller as it would have had
        the replica recorded into the caller's registry directly."""
        reg = PerfRegistry()
        reg.counter("seen").inc()
        before = reg.snapshot()
        reg.counter("seen").inc(0)
        reg.counter("fresh").inc(0)
        reg.cache("fresh").miss(0)
        delta = diff_snapshots(reg.snapshot(), before)
        assert delta["counters"] == {"fresh": 0}
        assert delta["caches"]["fresh"]["misses"] == 0
        merged = PerfRegistry()
        merged.merge_snapshot(delta)
        assert merged.snapshot()["counters"] == {"fresh": 0}

    def test_global_registry_round_trip(self):
        reg = get_perf()
        reg.counter("test.global").inc()
        assert get_perf().counter("test.global").value >= 1
        reset_perf()
        assert "test.global" not in get_perf().counters


class TestSnapshotUnderMutation:
    """Regression for the telemetry-era race (ISSUE 9 satellite 3):
    ``snapshot()`` iterates the metric dicts while worker threads call
    the create-on-first-use accessors.  Before the registry grew its
    lock, a concurrent insert could blow up the iteration with
    ``RuntimeError: dictionary changed size during iteration``."""

    def test_snapshot_while_threads_create_metrics(self):
        reg = PerfRegistry()
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn(worker: int) -> None:
            try:
                i = 0
                while not stop.is_set():
                    reg.counter(f"churn.c{worker}.{i}").inc()
                    with reg.timer(f"churn.t{worker}.{i}").time():
                        pass
                    reg.cache(f"churn.m{worker}.{i}").hit()
                    i += 1
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                snap = reg.snapshot()
                # a counter exists at 0 between its creation and the
                # churn thread's .inc(), so a live snapshot may read 0
                assert all(v >= 0 for v in snap["counters"].values())
                reg.report()  # the report path iterates too
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors, errors
        # once the threads are done no update may have been lost: each
        # counter was incremented once, each cache hit once
        snap = reg.snapshot()
        assert snap["counters"]
        assert all(v == 1 for v in snap["counters"].values())
        assert snap["caches"]
        assert all(
            c["hits"] == 1 and c["misses"] == 0
            for c in snap["caches"].values()
        )

    def test_snapshot_during_process_backend_search(self):
        """The real-world trigger: sampling the live registry while a
        process-backend search creates metrics from merged worker deltas
        (what a MetricsEmitter does every tick)."""
        from repro.obs import MetricsEmitter
        from repro.parallel import ExecutorConfig
        from repro.quant import LPQConfig, lpq_quantize
        from repro.spec import CalibSpec, SearchSpec

        config = LPQConfig(population=3, passes=1, cycles=1,
                           block_size=2, diversity_parents=2,
                           hw_widths=(4, 8), seed=21)
        spec = SearchSpec(
            model="tiny:mlp", calib=CalibSpec(batch=4, seed=3),
            config=config, seed=5,
        )
        ref = lpq_quantize(spec=spec)
        pooled = SearchSpec(
            model="tiny:mlp", calib=CalibSpec(batch=4, seed=3),
            config=config, seed=5,
            executor=ExecutorConfig("process", workers=2),
        )
        perf = reset_perf()  # ambient registry: what the search mutates
        samples: list[dict] = []
        emitter = MetricsEmitter(perf, samples.append, interval_s=0.001,
                                 source="test:process-search")
        emitter.start()
        try:
            got = lpq_quantize(spec=pooled)
        finally:
            emitter.stop()
            reset_perf()
        # telemetry was passive: the hammered search is still bitwise
        assert got.fitness == ref.fitness
        assert got.solution == ref.solution
        assert samples, "emitter never sampled"
