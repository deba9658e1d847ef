"""End-to-end live telemetry: workers → pool → hub → daemon → client.

The tentpole acceptance test for ISSUE 9: a daemon fronting a remote
worker fleet with telemetry enabled must (a) stream merged fleet
samples with nonzero per-worker evaluation deltas *while* a sweep runs,
(b) persist the trajectory to the time-series store, (c) answer
one-shot ``fleet_status`` queries, (d) emit deltas that sum exactly to
the worker's end-of-run perf snapshot, and — above all — (e) stay
passive: results bitwise-identical to a serial run.
"""

import socket
import threading
import time

import pytest

from repro.obs import TimeSeriesStore, get_hub, merge_samples, reset_hub
from repro.parallel import ExecutorConfig
from repro.perf import PerfRegistry
from repro.quant import lpq_quantize
from repro.serve.remote import WorkerServer
from repro.serve.server import SearchClient, SearchServer
from repro.spec import CalibSpec, SearchSpec
from repro.parallel._fingerprint import numerics_fingerprint
from repro.spec.wire import frame_message, hello_message, read_frame

from ..serve.conftest import SEARCH

SEEDS = (50, 51, 52)


def _spec(seed: int) -> SearchSpec:
    return SearchSpec(
        model="tiny:mlp",
        calib=CalibSpec(batch=4, seed=3),
        config=SEARCH,
        seed=seed,
    )


@pytest.fixture(autouse=True)
def _fresh_hub():
    reset_hub()
    yield
    reset_hub()


@pytest.fixture(scope="module")
def serial_refs():
    return {seed: lpq_quantize(spec=_spec(seed)) for seed in SEEDS}


def _drain_metrics_frames(sock, rfile, collected, done):
    """Read every frame until EOF, keeping the ``metrics`` pushes."""
    try:
        while True:
            frame = read_frame(rfile)
            if frame is None:
                break
            if frame.get("type") == "metrics":
                collected.append(frame)
    except (OSError, ValueError):
        pass
    finally:
        done.set()


class TestWorkerEmissionReconciles:
    def test_emitted_deltas_sum_to_final_perf_snapshot(self, tmp_path,
                                                       serial_refs):
        """Every delta a worker ever emits, summed, equals its final
        registry snapshot — counters *and* cache stats (the ISSUE 9
        reconciliation criterion).  The test holds its own client
        connection so the worker's stop-flush sample is observable."""
        perf = PerfRegistry()
        worker = WorkerServer(perf=perf, metrics_interval=0.02).start()
        host, port = worker.host, worker.port
        sock = socket.create_connection((host, port), timeout=10)
        rfile = sock.makefile("rb")
        sock.sendall(frame_message(
            hello_message(fingerprint=numerics_fingerprint())))
        assert read_frame(rfile)["type"] == "welcome"
        collected: list[dict] = []
        done = threading.Event()
        reader = threading.Thread(
            target=_drain_metrics_frames,
            args=(sock, rfile, collected, done), daemon=True,
        )
        reader.start()
        try:
            scheduler_cfg = ExecutorConfig(
                "remote", addresses=[worker.address]
            )
            from repro.serve import SearchScheduler

            scheduler = SearchScheduler(executor=scheduler_cfg)
            scheduler.submit("j", spec=_spec(50))
            results = scheduler.run()
            assert results["j"].fitness == serial_refs[50].fitness
        finally:
            worker.stop()  # flushes the tail sample to our connection
        assert done.wait(10.0), "worker closed without EOF"
        sock.close()
        assert collected, "no metrics frames received"
        merged = merge_samples(collected)
        final = perf.snapshot()
        assert merged["counters"] == final["counters"]
        assert merged["caches"].keys() == final["caches"].keys()
        for name, cache in final["caches"].items():
            got = merged["caches"][name]
            assert (got["hits"], got["misses"], got["evictions"]) == (
                cache["hits"], cache["misses"], cache["evictions"]
            )
        assert merged["counters"]["worker.evaluations"] > 0
        # frames are sequenced per source with no gaps
        seqs = [f["seq"] for f in collected]
        assert seqs == sorted(seqs)


class TestByeFlush:
    def test_departing_client_receives_the_telemetry_tail(self):
        """A ``bye`` triggers one immediate out-of-band sample, so even
        a pool window shorter than the sampling interval (an hour here)
        receives the deltas for the work it dispatched before EOF."""
        worker = WorkerServer(metrics_interval=3600.0).start()
        try:
            sock = socket.create_connection(
                (worker.host, worker.port), timeout=10
            )
            rfile = sock.makefile("rb")
            sock.sendall(frame_message(
                hello_message(fingerprint=numerics_fingerprint())))
            assert read_frame(rfile)["type"] == "welcome"
            worker.perf.counter("worker.evaluations").inc(7)
            sock.sendall(frame_message({"type": "bye"}))
            frames = []
            while True:
                frame = read_frame(rfile)
                if frame is None:
                    break
                frames.append(frame)
            sock.close()
        finally:
            worker.stop()
        metrics = [f for f in frames if f.get("type") == "metrics"]
        assert metrics, "bye produced no flush sample before EOF"
        assert metrics[-1]["delta"]["counters"]["worker.evaluations"] == 7


def _live_evaluations(frame: dict) -> int:
    """The worker evaluations one merged fleet frame carries."""
    return sum(
        w["delta"].get("counters", {}).get("worker.evaluations", 0)
        for w in frame.get("workers") or []
    )


class TestDaemonFleetTelemetry:
    def test_live_stream_status_timeseries_and_bitwise(self, tmp_path,
                                                       serial_refs):
        workers = [
            WorkerServer(perf=PerfRegistry(), metrics_interval=0.05).start()
            for _ in range(2)
        ]
        addresses = [w.address for w in workers]
        ts_dir = tmp_path / "ts"
        streaming = threading.Event()
        live = threading.Event()

        def hold_until_live(server, name, info):
            # a sweep that ends before a worker sample lands streams no
            # evaluations: hold the first batch until one frame shows
            # them, and only that batch, timeout or not
            live.wait(timeout=30.0)
            live.set()
            return False

        server = SearchServer(
            data_dir=tmp_path / "daemon",
            executor=ExecutorConfig("remote", addresses=addresses),
            metrics_interval=0.05, timeseries=ts_dir,
            perf=PerfRegistry(), crash_hook=hold_until_live,
        ).start()
        frames: list[dict] = []
        streamer = SearchClient(server.address)
        client = SearchClient(server.address)

        def pump():
            try:
                for frame in streamer.metrics_stream():
                    frames.append(frame)
                    streaming.set()
                    if _live_evaluations(frame):
                        live.set()
            except ConnectionError:
                pass  # server stopped: stream over

        pump_thread = threading.Thread(target=pump, daemon=True)
        try:
            pump_thread.start()
            # submit once the stream is live: a sweep that finishes
            # before the subscription lands streams no evaluations
            assert streaming.wait(10.0), "metrics stream never started"
            jobs = {
                seed: client.submit(_spec(seed))["job"] for seed in SEEDS
            }
            records = {
                seed: client.wait(job, timeout=180)
                for seed, job in jobs.items()
            }

            # (e) passive: bitwise-identical to the serial ground truth
            for seed, record in records.items():
                ref = serial_refs[seed]
                assert record["fitness"] == ref.fitness
                assert record["solution"] == [
                    [p.n, p.es, p.rs, p.sf]
                    for p in ref.solution.layer_params
                ]

            # (c) one-shot status while still live
            status = client.fleet_status()
            assert status["metrics"]["enabled"]
            assert status["metrics"]["interval_s"] == pytest.approx(0.05)
            assert status["metrics"]["timeseries"] == str(
                ts_dir / "timeseries.jsonl"
            )
            assert {j["state"] for j in status["jobs"]} == {"done"}
            assert set(status["scheduler"]) >= {
                "jobs", "queue_depth", "workers", "fleet"
            }
            # the hub's latest per-worker samples surface in the status
            assert set(status["workers"]) >= {
                f"worker:{a}" for a in addresses
            }
        finally:
            client.close()
            server.stop()
            streamer.close()
            for worker in workers:
                worker.stop()
        pump_thread.join(timeout=10.0)

        # (a) live mid-sweep samples: some frame carried a nonzero
        # per-worker evaluation delta while jobs were running
        live_evals = [_live_evaluations(frame) for frame in frames]
        assert frames, "no merged fleet frames streamed"
        assert sum(live_evals) > 0, "stream never showed live evaluations"
        sources = {
            w["source"] for frame in frames
            for w in frame.get("workers") or []
        }
        assert sources >= {f"worker:{a}" for a in addresses}

        # (b) the persisted trajectory replays and merges to the same
        # fleet-wide story the stream told
        store = TimeSeriesStore(ts_dir / "timeseries.jsonl",
                                perf=PerfRegistry())
        samples = store.replay()
        assert samples, "time series is empty"
        persisted = merge_samples(
            w for s in samples for w in s.get("workers") or []
        )
        streamed = merge_samples(
            w for f in frames for w in f.get("workers") or []
        )
        assert persisted["counters"].get("worker.evaluations", 0) > 0
        # stop() flushes the emitter into the store after the stream
        # client is gone, so the store sees at least what the stream saw
        assert persisted["counters"]["worker.evaluations"] >= streamed[
            "counters"
        ].get("worker.evaluations", 0)
        # every sample documents its source and is version-stamped
        assert all(s.get("v") == 1 and "source" in s for s in samples)

    def test_disabled_daemon_rejects_stream_but_answers_status(
            self, tmp_path):
        from repro.serve.server import ServerError

        server = SearchServer(
            data_dir=tmp_path / "daemon", perf=PerfRegistry(),
        ).start()
        client = SearchClient(server.address)
        try:
            status = client.fleet_status()
            assert not status["metrics"]["enabled"]
            assert status["metrics"]["timeseries"] is None
            with pytest.raises(ServerError, match="telemetry disabled"):
                next(client.metrics_stream())
        finally:
            client.close()
            server.stop()
