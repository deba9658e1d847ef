"""The socket transport: framing, handshake, liveness, and bitwise parity.

Acceptance criteria from the WorkerPool redesign:

* ``ExecutorConfig(backend="remote", addresses=[...])`` produces
  bitwise-identical search results to ``backend="serial"`` for the
  committed example specs, through both ``lpq_quantize`` and the
  scheduler;
* killing one of two workers mid-search still completes the job with
  identical results (dead-worker requeue);
* a bad auth token is refused cleanly — an exception with context, no
  hang — and the worker keeps serving correctly-authenticated clients.

The frame codec is property-tested: every message survives encode →
arbitrary TCP segmentation → decode.
"""

import contextlib
import dataclasses
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import ExecutorConfig, parse_address
from repro.parallel._fingerprint import numerics_fingerprint
from repro.perf import get_perf
from repro.quant import lpq_quantize
from repro.serve import SearchScheduler, WorkerPool, make_shared_pool
from repro.serve.remote import (
    RemoteExecutor,
    SharedRemotePool,
    WorkerServer,
    local_worker_fleet,
)
from repro.spec import CalibSpec, SearchSpec
from repro.spec.wire import (
    FINGERPRINT_MISMATCH,
    FrameDecoder,
    decode_solution,
    encode_solution,
    frame_message,
    hello_message,
    read_frame,
)

from .conftest import SEARCH

SPEC = SearchSpec(
    model="tiny:resnet", calib=CalibSpec(batch=4, seed=3), config=SEARCH,
    name="tiny",
)

# JSON-representable message payloads: nested dicts/lists of scalars,
# as every protocol message is
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)
json_messages = st.dictionaries(st.text(max_size=10), json_values, max_size=6)


class TestFraming:
    @given(messages=st.lists(json_messages, min_size=1, max_size=6),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_survives_any_segmentation(self, messages, data):
        """A frame stream split at arbitrary byte boundaries decodes to
        exactly the original message sequence."""
        stream = b"".join(frame_message(m) for m in messages)
        decoder = FrameDecoder()
        decoded = []
        pos = 0
        while pos < len(stream):
            step = data.draw(
                st.integers(1, len(stream) - pos), label="segment"
            )
            decoded.extend(decoder.feed(stream[pos:pos + step]))
            pos += step
        assert decoded == messages
        assert decoder.pending_bytes == 0

    @given(message=json_messages)
    @settings(max_examples=50, deadline=None)
    def test_single_message_identity(self, message):
        assert FrameDecoder().feed(frame_message(message)) == [message]

    def test_oversized_frame_rejected_both_ends(self):
        with pytest.raises(ValueError, match="exceeds"):
            frame_message({"pad": "x" * 100}, max_bytes=16)
        decoder = FrameDecoder(max_bytes=16)
        with pytest.raises(ValueError, match="exceeds"):
            decoder.feed(frame_message({"pad": "x" * 100}))

    def test_non_object_body_rejected(self):
        import json as json_mod
        import struct
        import zlib

        # a well-formed frame (valid length + CRC) whose body is not a
        # JSON object must still be rejected at the schema level
        body = json_mod.dumps([1, 2, 3]).encode()
        frame = struct.pack(">II", len(body), zlib.crc32(body)) + body
        with pytest.raises(ValueError, match="JSON object"):
            FrameDecoder().feed(frame)


class TestSolutionWire:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_bitwise(self, data):
        import numpy as np

        from repro.quant import random_solution

        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        layers = data.draw(st.integers(1, 6))
        centers = [
            data.draw(st.floats(-8.0, 8.0, allow_nan=False))
            for _ in range(layers)
        ]
        solution = random_solution(rng, layers, centers, (4, 8))
        assert decode_solution(encode_solution(solution)) == solution


class TestAddresses:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:7301") == ("127.0.0.1", 7301)
        for bad in ("nohost", "host:", ":42", "host:port", "host:0"):
            with pytest.raises(ValueError, match="address"):
                parse_address(bad)

    def test_remote_requires_addresses(self):
        with pytest.raises(ValueError, match="requires addresses"):
            ExecutorConfig("remote")

    def test_addresses_rejected_on_local_backends(self):
        with pytest.raises(ValueError, match="only apply to the remote"):
            ExecutorConfig("process", addresses=("127.0.0.1:1",))

    def test_remote_config_roundtrips_as_json(self):
        config = ExecutorConfig(
            "remote", addresses=["127.0.0.1:7301", "127.0.0.1:7302"],
            token="s3cret",
        )
        assert config.addresses == ("127.0.0.1:7301", "127.0.0.1:7302")
        assert ExecutorConfig.from_dict(config.to_dict()) == config
        assert config.resolved_workers() == 2


class TestHandshake:
    def test_bad_token_refused_cleanly_and_worker_survives(self):
        """Wrong token → exception naming the refusal, no hang; the same
        worker then serves a correctly-authenticated client."""
        with WorkerServer(token="right") as server:
            results: queue.SimpleQueue = queue.SimpleQueue()
            with pytest.raises(ConnectionError, match="bad auth token"):
                SharedRemotePool(
                    {}, [server.address], results, token="wrong"
                ).start()
            assert server.auth_failures == 1
            with pytest.raises(ConnectionError, match="bad auth token"):
                SharedRemotePool({}, [server.address], results).start()
            pool = SharedRemotePool(
                {}, [server.address], results, token="right"
            ).start()
            try:
                assert pool.healthy()
            finally:
                pool.close()

    def test_welcome_precedes_metrics_sent_mid_handshake(self):
        """A telemetry broadcast that lands while a session is still in
        its handshake must not reach that client: its first frame is
        ``welcome``, then the samples."""
        sample = {"source": "worker:test", "seq": 0, "t": 0.0,
                  "delta": {}, "gauges": {}}
        with WorkerServer() as server:
            sock = socket.create_connection(
                parse_address(server.address), timeout=10
            )
            try:
                deadline = time.monotonic() + 10
                while not server._sessions:  # accepted, not yet welcomed
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                (session,) = server._sessions
                server._broadcast_metrics(sample)
                sock.sendall(frame_message(
                    hello_message(fingerprint=numerics_fingerprint())))
                rfile = sock.makefile("rb")
                assert read_frame(rfile)["type"] == "welcome"
                # the flag is set just after the welcome write returns
                while not session.welcomed:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                server._broadcast_metrics({**sample, "seq": 1})
                frame = read_frame(rfile)
                assert (frame["type"], frame["seq"]) == ("metrics", 1)
            finally:
                sock.close()

    def test_both_ends_switch_off_nagle(self):
        """Both ends of a live worker connection set ``TCP_NODELAY``, so
        the frame after a ``release`` never waits for a delayed ACK."""
        with WorkerServer() as server:
            pool = SharedRemotePool(
                {}, [server.address], queue.SimpleQueue()
            ).start()
            try:
                (worker,) = pool._workers
                with server._lock:
                    (session,) = server._sessions
                for sock in (worker.sock, session.sock):
                    assert sock.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
            finally:
                pool.close()

    def test_unreachable_worker_fails_with_address(self):
        results: queue.SimpleQueue = queue.SimpleQueue()
        with pytest.raises(ConnectionError, match="127.0.0.1:9"):
            SharedRemotePool({}, ["127.0.0.1:9"], results).start()


def _remote_executor(addresses, workers=None):
    return ExecutorConfig("remote", addresses=list(addresses))


@contextlib.contextmanager
def _worker_process(port=0, **env):
    """One ``scripts/run_worker.py`` process on ``port`` (0: ephemeral)
    with ``env`` added to its environment; yields its address.  A port
    just freed by a killed worker may take a moment to bind again, so
    a failed start is retried for up to 30 s."""
    root = Path(__file__).resolve().parents[2]
    deadline = time.monotonic() + 30
    while True:
        proc = subprocess.Popen(
            [sys.executable, str(root / "scripts/run_worker.py"),
             "--quiet", "--port", str(port)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src"), **env},
        )
        line = proc.stdout.readline()
        if line.startswith("worker listening on ") \
                or time.monotonic() > deadline:
            break
        proc.wait(30)
        proc.stdout.close()
        time.sleep(0.1)
    try:
        assert line.startswith("worker listening on "), line
        yield line.split()[-1]
    finally:
        proc.terminate()
        proc.wait(30)
        proc.stdout.close()


class TestNumericsFingerprint:
    """A worker whose kernels round differently from the client's is
    refused at the handshake, so it can never put its bits into a
    search; a worker with the client's numerics is accepted."""

    @staticmethod
    def _mismatches() -> int:
        return get_perf().counter("remote.fingerprint_mismatch").value

    def test_other_blas_kernel_refused_search_runs_locally(self):
        ref = lpq_quantize(spec=SPEC)
        before = self._mismatches()
        with _worker_process(OPENBLAS_CORETYPE="Prescott") as address:
            with pytest.warns(RuntimeWarning, match="fingerprint"):
                got = lpq_quantize(spec=dataclasses.replace(
                    SPEC, executor=_remote_executor([address])
                ))
        assert self._mismatches() == before + 1
        assert got.solution == ref.solution
        assert got.fitness == ref.fitness
        assert got.history.best_fitness == ref.history.best_fitness

    def test_refusal_names_its_reason_on_both_ends(self):
        with _worker_process(OPENBLAS_CORETYPE="Prescott") as address:
            host, port = parse_address(address)
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(frame_message(
                    hello_message(fingerprint=numerics_fingerprint())))
                reply = read_frame(sock.makefile("rb"))
            assert reply["type"] == "error"
            assert reply["reason"] == FINGERPRINT_MISMATCH
            pool = SharedRemotePool({}, [address], queue.SimpleQueue())
            with pytest.warns(RuntimeWarning, match="fingerprint"):
                pool.start()
            try:
                assert not pool.healthy()
                assert list(pool.refused) == [address]
                assert "fingerprint" in pool.refused[address]
            finally:
                pool.close()

    def test_same_numerics_process_worker_stays_bitwise(self):
        ref = lpq_quantize(spec=SPEC)
        before = self._mismatches()
        with _worker_process() as address:
            got = lpq_quantize(spec=dataclasses.replace(
                SPEC, executor=_remote_executor([address])
            ))
        assert self._mismatches() == before
        assert got.solution == ref.solution
        assert got.fitness == ref.fitness


class TestRemoteBitwiseParity:
    def test_lpq_quantize_matches_serial(self):
        """The acceptance criterion: remote fleet ≡ serial, bitwise."""
        ref = lpq_quantize(spec=SPEC)
        with local_worker_fleet(2) as addresses:
            import dataclasses

            got = lpq_quantize(spec=dataclasses.replace(
                SPEC, executor=_remote_executor(addresses)
            ))
        assert got.solution == ref.solution
        assert got.fitness == ref.fitness
        assert got.history.best_fitness == ref.history.best_fitness
        assert got.act_params == ref.act_params
        assert got.evaluations == ref.evaluations

    def test_scheduler_remote_matches_standalone(self, serve_setup):
        cnn, _, images = serve_setup
        ref_spec = lpq_quantize(spec=SPEC)
        ref_live = lpq_quantize(cnn, images, config=SEARCH)
        with local_worker_fleet(2) as addresses:
            scheduler = SearchScheduler(
                executor=_remote_executor(addresses)
            )
            scheduler.submit("declarative", spec=SPEC)
            scheduler.submit("live", cnn, images, config=SEARCH)
            results = scheduler.run()
        assert results["declarative"].solution == ref_spec.solution
        assert results["declarative"].fitness == ref_spec.fitness
        assert results["live"].solution == ref_live.solution
        assert results["live"].fitness == ref_live.fitness

    def test_committed_example_specs_match_serial(self):
        """Both committed example specs, remote ≡ serial (the CI leg
        runs the same comparison through the CLI)."""
        import dataclasses
        from pathlib import Path

        specs_dir = Path(__file__).resolve().parents[2] / "examples/specs"
        with local_worker_fleet(2) as addresses:
            for name in ("tiny_resnet.json", "tiny_mlp.json"):
                spec = SearchSpec.load(specs_dir / name)
                ref = lpq_quantize(
                    spec=dataclasses.replace(spec, executor=None)
                )
                got = lpq_quantize(spec=dataclasses.replace(
                    spec, executor=_remote_executor(addresses)
                ))
                assert got.solution == ref.solution, name
                assert got.fitness == ref.fitness, name


class TestLiveness:
    def test_killed_worker_requeues_and_completes_identically(self):
        """Kill one of two workers once it has started evaluating; the
        search must complete with results bitwise-equal to serial."""
        ref = lpq_quantize(spec=SPEC)
        w0, w1 = WorkerServer().start(), WorkerServer().start()
        try:
            killer = threading.Thread(
                target=lambda: (
                    w0.task_started_event.wait(60), w0.kill()
                ),
                daemon=True,
            )
            killer.start()
            scheduler = SearchScheduler(
                executor=_remote_executor([w0.address, w1.address])
            )
            scheduler.submit("tiny", spec=SPEC)
            results = scheduler.run()
            killer.join(timeout=60)
            assert w0.tasks_started >= 1, "kill never triggered mid-search"
        finally:
            w0.stop()
            w1.stop()
        assert results["tiny"].solution == ref.solution
        assert results["tiny"].fitness == ref.fitness
        assert results["tiny"].history.best_fitness == ref.history.best_fitness

    def test_killed_worker_blob_refetch_stays_identical(self, serve_setup):
        """Kill one worker mid-search while the survivor drops its blob
        and replica caches (what a restarted worker looks like): the
        requeued chunks force the survivor to rebuild its replica
        through the ``blob_get`` fetch-on-miss frames, and the search
        still completes bitwise-equal to serial.  A *live* model job is
        what makes this a blob test — its state dict and calibration
        batch ride the wire as content-addressed refs (the declarative
        ``SPEC`` ships no arrays at all)."""
        cnn, _, images = serve_setup
        ref = lpq_quantize(cnn, images, config=SEARCH)
        w0, w1 = WorkerServer().start(), WorkerServer().start()
        try:
            def sabotage():
                w0.task_started_event.wait(60)
                w1.drop_caches()  # survivor must refetch lost blobs
                w0.kill()

            saboteur = threading.Thread(target=sabotage, daemon=True)
            saboteur.start()
            scheduler = SearchScheduler(
                executor=_remote_executor([w0.address, w1.address])
            )
            scheduler.submit("live", cnn, images, config=SEARCH)
            results = scheduler.run()
            saboteur.join(timeout=60)
            assert w0.tasks_started >= 1, "kill never triggered mid-search"
        finally:
            w0.stop()
            w1.stop()
        assert results["live"].solution == ref.solution
        assert results["live"].fitness == ref.fitness
        assert results["live"].history.best_fitness == ref.history.best_fitness

    def test_whole_fleet_dead_fails_job_not_hangs(self):
        """Killing every worker resolves outstanding chunks to error
        results: the job fails with context instead of blocking run()."""
        w0 = WorkerServer().start()
        try:
            killer = threading.Thread(
                target=lambda: (
                    w0.task_started_event.wait(60), w0.kill()
                ),
                daemon=True,
            )
            killer.start()
            scheduler = SearchScheduler(
                executor=_remote_executor([w0.address])
            )
            handle = scheduler.submit("tiny", spec=SPEC)
            results = scheduler.run()
            killer.join(timeout=60)
        finally:
            w0.stop()
        # either the in-flight chunk errored (fleet collapse) or the
        # worker finished the tiny search before dying — never a hang;
        # with tasks raced this tightly both outcomes are legitimate
        assert handle.finished
        if handle.failed:
            assert "remote" in handle.error or "worker" in handle.error
            assert results == {}

    def test_silent_worker_detected_by_liveness_timeout(self):
        """A worker that goes silent *without* closing its socket (hung
        host, dropped network) is only detectable by heartbeat timeout;
        its in-flight chunks must requeue onto the survivor with
        results unchanged."""
        import numpy as np

        from repro.parallel import EvaluatorSpec
        from repro.quant import collect_layer_stats, random_solution
        from repro.serve.pool import encode_pool_wires

        from .servemodels import build_serve_mlp

        model = build_serve_mlp()
        model.eval()
        images = np.random.default_rng(0).normal(
            size=(4, 3, 8, 8)
        ).astype(np.float32)
        stats = collect_layer_stats(model, images)
        spec = EvaluatorSpec(
            images=images, builder=build_serve_mlp,
            state=model.state_dict(), stats=stats,
        )
        replica = spec.build(copy_model=True)
        rng = np.random.default_rng(2)
        solutions = [
            random_solution(rng, len(stats), stats.weight_log_centers, (4, 8))
            for _ in range(6)
        ]
        expected = [replica.evaluate(sol) for sol in solutions]

        hung, survivor = WorkerServer().start(), WorkerServer().start()
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = SharedRemotePool(
            encode_pool_wires({"j": spec}),
            [hung.address, survivor.address],
            results,
            heartbeat_s=0.1,
            liveness_timeout_s=1.0,
        ).start()
        try:
            hung.silence()  # open sockets, no pongs, no results
            for idx, sol in enumerate(solutions):
                pool.submit("j", 0, idx, [sol])
            got = {}
            for _ in range(len(solutions)):
                res = results.get(timeout=60)
                assert res.error is None, res.error
                got[res.chunk] = res.fits[0]
        finally:
            pool.close()
            hung.stop()
            survivor.stop()
        assert [got[i] for i in range(len(solutions))] == expected

    def test_pool_workers_shrinks_as_fleet_dies(self):
        with local_worker_fleet(2) as addresses:
            results: queue.SimpleQueue = queue.SimpleQueue()
            pool = SharedRemotePool({}, addresses, results).start()
            try:
                assert isinstance(pool, WorkerPool)
                assert pool.workers == 2 and pool.healthy()
            finally:
                pool.close()
            assert not pool.healthy()


def _held_replicas(server) -> dict:
    """Session name → the jobs it holds a replica or payload of."""
    with server._lock:
        sessions = list(server._sessions)
    return {
        s.name: set(s._table.replicas) | set(s._table.payloads)
        for s in sessions
    }


class TestReleasedReplicas:
    """A socket worker drops a finished job's replica (the ``release``
    frame), so a long-lived pool does not grow by one replica per job."""

    def test_worker_drops_each_finished_job(self):
        refs = {
            f"j{i}": lpq_quantize(spec=dataclasses.replace(SPEC, seed=i))
            for i in range(3)
        }
        server = WorkerServer().start()
        held_after: dict[str, dict] = {}

        def on_finished(name, handle):
            # the release frame queues behind the job's earlier tasks:
            # give the worker's evaluator a moment to reach it
            deadline = time.monotonic() + 10.0
            held = _held_replicas(server)
            while any(name in jobs for jobs in held.values()) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
                held = _held_replicas(server)
            held_after[name] = held

        try:
            scheduler = SearchScheduler(
                executor=_remote_executor([server.address]),
                on_finished=on_finished,
            )
            for name in refs:
                scheduler.submit(
                    name, spec=dataclasses.replace(SPEC, seed=int(name[1:]))
                )
            results = scheduler.run()
        finally:
            server.stop()
        assert sorted(held_after) == ["j0", "j1", "j2"]
        for name, held in held_after.items():
            assert held, "the pool's session was gone before the job ended"
            assert all(name not in jobs for jobs in held.values()), (
                name, held)
        for name, ref in refs.items():
            assert results[name].solution == ref.solution
            assert results[name].fitness == ref.fitness


class TestRemoteExecutorAdapter:
    def test_registered_as_executor_backend(self, serve_setup):
        from repro.quant import collect_layer_stats
        from repro.parallel import EvaluatorSpec, make_executor
        from repro.perf import PerfRegistry

        from .servemodels import build_serve_cnn

        model = build_serve_cnn()
        model.eval()
        images = serve_setup[2]
        stats = collect_layer_stats(model, images)
        spec = EvaluatorSpec(
            images=images, builder=build_serve_cnn,
            state=model.state_dict(), stats=stats,
        )
        serial = spec.build(copy_model=True)
        import numpy as np

        from repro.quant import random_solution

        rng = np.random.default_rng(5)
        solutions = [
            random_solution(rng, len(stats), stats.weight_log_centers, (4, 8))
            for _ in range(5)
        ]
        with local_worker_fleet(2) as addresses:
            executor = make_executor(
                spec, _remote_executor(addresses), PerfRegistry()
            )
            assert isinstance(executor, RemoteExecutor)
            try:
                assert executor.workers == 2
                fits = executor.evaluate_batch(solutions)
            finally:
                executor.close()
        assert fits == [serial.evaluate(sol) for sol in solutions]

    def test_make_shared_pool_builds_remote(self, serve_setup):
        with local_worker_fleet(1) as addresses:
            results: queue.SimpleQueue = queue.SimpleQueue()
            pool = make_shared_pool(
                {}, _remote_executor(addresses), results
            )
            try:
                assert isinstance(pool, SharedRemotePool)
                assert pool.healthy()
            finally:
                pool.close()


def _mlp_pool_setup(n_solutions=6):
    """A small EvaluatorSpec + solutions + serial reference fits, for
    raw-pool resilience tests."""
    import numpy as np

    from repro.parallel import EvaluatorSpec
    from repro.quant import collect_layer_stats, random_solution

    from .servemodels import build_serve_mlp

    model = build_serve_mlp()
    model.eval()
    images = np.random.default_rng(0).normal(
        size=(4, 3, 8, 8)
    ).astype(np.float32)
    stats = collect_layer_stats(model, images)
    spec = EvaluatorSpec(
        images=images, builder=build_serve_mlp,
        state=model.state_dict(), stats=stats,
    )
    replica = spec.build(copy_model=True)
    rng = np.random.default_rng(2)
    solutions = [
        random_solution(rng, len(stats), stats.weight_log_centers, (4, 8))
        for _ in range(n_solutions)
    ]
    return spec, solutions, [replica.evaluate(sol) for sol in solutions]


def _collect(results, n, timeout=60):
    got = {}
    for _ in range(n):
        res = results.get(timeout=timeout)
        assert res.error is None, res.error
        got[res.chunk] = res.fits[0]
    return [got[i] for i in range(n)]


class TestResilience:
    """The elastic-fleet recovery paths: hang-after-accept, duplicate
    dedupe, protocol refusal, drain, rejoin, and thread-leak
    surfacing."""

    def test_worker_hangs_after_accepting_chunk_requeues(self):
        """The nasty liveness case: the worker *accepted* chunks and
        began evaluating, then went silent — results computed but never
        sent.  Only the liveness timeout can recover these."""
        from repro.serve.pool import encode_pool_wires
        from repro.serve.resilience import RetryPolicy

        spec, solutions, expected = _mlp_pool_setup()
        hung, survivor = WorkerServer().start(), WorkerServer().start()
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = SharedRemotePool(
            encode_pool_wires({"j": spec}),
            [hung.address, survivor.address],
            results,
            retry=RetryPolicy(max_attempts=10, backoff_base_s=0.02,
                              backoff_max_s=0.2, heartbeat_s=0.05,
                              liveness_timeout_s=0.6),
        ).start()
        try:
            saboteur = threading.Thread(
                target=lambda: (
                    hung.task_started_event.wait(60), hung.silence()
                ),
                daemon=True,
            )
            saboteur.start()
            for idx, sol in enumerate(solutions):
                pool.submit("j", 0, idx, [sol])
            fits = _collect(results, len(solutions))
            saboteur.join(timeout=60)
            assert hung.tasks_started >= 1, "hang never triggered"
        finally:
            pool.close()
            hung.stop()
            survivor.stop()
        assert fits == expected

    def test_duplicate_delivery_after_requeue_is_deduped(self):
        """Exactly-once results: a second delivery of the same task id
        (requeue or rebalance race) is dropped and counted, and the
        delivering worker's load tracking stays consistent."""
        from repro.perf import PerfRegistry
        from repro.serve.remote import _RemoteWorker, _Task

        perf = PerfRegistry()
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = SharedRemotePool(
            {}, ["127.0.0.1:1"], results, perf=perf
        )
        entry = _Task(7, "j", 0, 3, [[1]])
        pool._pending[7] = entry
        w0, w1 = _RemoteWorker("a:1"), _RemoteWorker("b:1")
        w0.pending.add(7)
        w1.pending.add(7)  # requeued onto w1, then both delivered
        message = {"type": "result", "task": 7, "job": "j", "seq": 0,
                   "chunk": 3, "fits": [0.5], "elapsed": 0.01}
        pool._handle_result(w0, message)
        pool._handle_result(w1, message)
        assert results.qsize() == 1
        assert not w0.pending and not w1.pending
        assert perf.counter("fault.duplicate_results").value == 1

    def test_protocol_mismatch_refused_with_clear_error(self):
        """A client speaking another protocol build is refused before
        any payload is decoded, with both versions in the error."""
        import socket as socket_mod

        from repro.spec.wire import PROTOCOL_VERSION, read_frame

        with WorkerServer() as server:
            host, port = parse_address(server.address)
            with socket_mod.create_connection((host, port), timeout=10) \
                    as sock:
                stale = dict(hello_message(None), protocol=1)
                sock.sendall(frame_message(stale))
                reply = read_frame(sock.makefile("rb"))
            assert reply["type"] == "error"
            assert "protocol version mismatch" in reply["error"]
            assert "1" in reply["error"]
            assert str(PROTOCOL_VERSION) in reply["error"]

    def test_client_rejects_stale_build_with_context(self, monkeypatch):
        """The client side of the same refusal: the ConnectionError
        names the worker address and says what to do."""
        import repro.serve.remote as remote_mod

        monkeypatch.setattr(
            remote_mod, "hello_message",
            lambda *args: dict(hello_message(*args), protocol=999),
        )
        with WorkerServer() as server:
            results: queue.SimpleQueue = queue.SimpleQueue()
            with pytest.raises(ConnectionError, match="refused"):
                SharedRemotePool({}, [server.address], results).start()

    def test_drain_finishes_inflight_then_retires(self):
        """SIGTERM path: a draining worker finishes what it accepted,
        the pool stops dispatching to it, and no chunk is lost."""
        from repro.perf import PerfRegistry
        from repro.serve.pool import encode_pool_wires

        spec, solutions, expected = _mlp_pool_setup()
        leaving, survivor = WorkerServer().start(), WorkerServer().start()
        perf = PerfRegistry()
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = SharedRemotePool(
            encode_pool_wires({"j": spec}),
            [leaving.address, survivor.address],
            results, perf=perf,
        ).start()
        try:
            drainer = threading.Thread(
                target=lambda: (
                    leaving.task_started_event.wait(60), leaving.drain()
                ),
                daemon=True,
            )
            drainer.start()
            for idx, sol in enumerate(solutions):
                pool.submit("j", 0, idx, [sol])
            fits = _collect(results, len(solutions))
            drainer.join(timeout=60)
            assert leaving.draining
        finally:
            pool.close()
            leaving.stop()
            survivor.stop()
        assert fits == expected
        # late submissions must all land on the survivor: the drained
        # worker is out of the rotation even though redial is on
        assert perf.counter("fault.drains").value >= 1

    def test_restarted_worker_rejoins_and_serves(self):
        """A worker killed and restarted behind the same address is
        re-dialed and put back to work mid-life."""
        from repro.perf import PerfRegistry
        from repro.serve.pool import encode_pool_wires
        from repro.serve.resilience import RetryPolicy

        spec, solutions, expected = _mlp_pool_setup()
        w0 = WorkerServer().start()
        port = w0.port
        perf = PerfRegistry()
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = SharedRemotePool(
            encode_pool_wires({"j": spec}), [w0.address], results,
            perf=perf,
            retry=RetryPolicy(max_attempts=10, backoff_base_s=0.02,
                              backoff_max_s=0.1, heartbeat_s=0.05,
                              fleet_wait_s=60.0),
        ).start()
        restarted = None
        try:
            for idx, sol in enumerate(solutions[:3]):
                pool.submit("j", 0, idx, [sol])
            first_half = _collect(results, 3)
            w0.kill()
            # in-flight empty; these go to parking until the rejoin
            for idx, sol in enumerate(solutions[3:]):
                pool.submit("j", 1, idx, [sol])
            # rebinding races the client noticing the death (the port
            # stays busy until the old connection fully closes), exactly
            # as an operator restarting the box would experience
            deadline = time.monotonic() + 30
            while True:
                try:
                    restarted = WorkerServer(port=port).start()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            second_half = _collect(results, len(solutions) - 3)
        finally:
            pool.close()
            w0.stop()
            if restarted is not None:
                restarted.stop()
        assert first_half == expected[:3]
        assert second_half == expected[3:]
        assert perf.counter("fault.rejoins").value >= 1
        assert perf.counter("fault.redials").value >= 1

    def test_parked_chunks_run_locally_when_the_rejoin_is_refused(self):
        """The fleet goes down with chunks parked for a rejoin, and the
        worker comes back on another BLAS kernel: it is refused, and
        with no address left the parked chunks run on the local
        fallback, bitwise equal to serial, instead of failing once
        ``fleet_wait_s`` runs out."""
        from repro.perf import PerfRegistry
        from repro.serve.pool import encode_pool_wires
        from repro.serve.resilience import RetryPolicy

        spec, solutions, expected = _mlp_pool_setup()
        w0 = WorkerServer().start()
        perf = PerfRegistry()
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = SharedRemotePool(
            encode_pool_wires({"j": spec}), [w0.address], results,
            perf=perf,
            retry=RetryPolicy(max_attempts=10, backoff_base_s=0.02,
                              backoff_max_s=0.1, heartbeat_s=0.05,
                              fleet_wait_s=120.0),
        ).start()
        try:
            for idx, sol in enumerate(solutions[:3]):
                pool.submit("j", 0, idx, [sol])
            first_half = _collect(results, 3)
            w0.kill()
            for idx, sol in enumerate(solutions[3:]):
                pool.submit("j", 1, idx, [sol])
            with pytest.warns(RuntimeWarning, match="fingerprint"), \
                    _worker_process(port=w0.port,
                                    OPENBLAS_CORETYPE="Prescott"):
                second_half = _collect(results, len(solutions) - 3)
        finally:
            pool.close()
            w0.stop()
        assert first_half == expected[:3]
        assert second_half == expected[3:]
        assert perf.counter("fault.parked").value >= 1
        assert perf.counter("remote.fingerprint_mismatch").value == 1
        assert list(pool.refused) == [w0.address]

    def test_clean_close_leaks_no_threads(self):
        """The leak-surfacing satellite: a clean fleet shutdown joins
        every transport thread; nothing lands in the leak registers."""
        from repro.serve.pool import encode_pool_wires

        spec, solutions, _ = _mlp_pool_setup(n_solutions=2)
        servers = [WorkerServer().start() for _ in range(2)]
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = SharedRemotePool(
            encode_pool_wires({"j": spec}),
            [s.address for s in servers], results,
        ).start()
        try:
            for idx, sol in enumerate(solutions):
                pool.submit("j", 0, idx, [sol])
            _collect(results, len(solutions))
        finally:
            pool.close()
            for server in servers:
                server.stop()
        assert pool.leaked_threads == []
        assert all(s.leaked_sessions == [] for s in servers)


class TestFrameIntegrity:
    """CRC32 framing: corruption anywhere in a frame is detected at
    decode time, never silently parsed."""

    def test_corrupt_body_byte_raises(self):
        from repro.spec.wire import FrameCorruptionError

        data = bytearray(frame_message({"type": "result", "fits": [1.5]}))
        data[-3] ^= 0x20
        decoder = FrameDecoder()
        with pytest.raises(FrameCorruptionError, match="checksum"):
            decoder.feed(bytes(data))

    @given(position=st.integers(0, 255), bit=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_no_single_bit_flip_ever_decodes(self, position, bit):
        """Flipping any single bit of a frame — length, checksum, or
        body — must never decode to a message: the decoder raises, or
        (a length flip that enlarges the frame) keeps waiting for bytes
        that never come.  Both demote the worker; neither parses."""
        from repro.spec.wire import FrameCorruptionError

        data = bytearray(frame_message({"a": 1}))
        data[position % len(data)] ^= 1 << bit
        decoder = FrameDecoder()
        try:
            messages = decoder.feed(bytes(data))
        except (FrameCorruptionError, ValueError):
            return
        assert messages == []

    def test_read_frame_checks_crc(self):
        import io

        from repro.spec.wire import FrameCorruptionError, read_frame

        data = bytearray(frame_message({"a": 1}))
        data[-1] ^= 0xFF
        with pytest.raises(FrameCorruptionError):
            read_frame(io.BytesIO(bytes(data)))

    def test_handshake_messages_carry_protocol_version(self):
        from repro.spec.wire import (
            PROTOCOL_VERSION,
            hello_message,
            welcome_message,
        )

        assert hello_message("t")["protocol"] == PROTOCOL_VERSION
        assert welcome_message()["protocol"] == PROTOCOL_VERSION
