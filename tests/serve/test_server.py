"""The always-on search daemon: protocol, queue control, durability.

The acceptance bar is the stack's standing invariant: a daemon that
crashes mid-run and restarts on the same ``data_dir`` finishes every
job bitwise-identical to an uninterrupted serial
:func:`repro.quant.lpq_quantize` run — done jobs replay from the
digest store for free, interrupted jobs re-run exactly once.
"""

import contextlib
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.parallel import ExecutorConfig
from repro.parallel.executor import IDLE_REPLICAS
from repro.perf import PerfRegistry
from repro.quant import lpq_quantize
from repro.serve.remote import (
    SharedRemotePool,
    WorkerServer,
    local_worker_fleet,
)
from repro.serve.scheduler import SearchScheduler
from repro.serve.server import SearchClient, SearchServer, ServerError
from repro.serve.store import Journal
from repro.spec import CalibSpec, SearchSpec
from repro.spec.wire import (
    SERVER_OPS,
    frame_message,
    hello_message,
    read_frame,
)

from .conftest import SEARCH


def _spec(seed: int) -> SearchSpec:
    return SearchSpec(
        model="tiny:mlp",
        calib=CalibSpec(batch=4, seed=3),
        config=SEARCH,
        seed=seed,
    )


SEEDS = (10, 11, 12)


@pytest.fixture(scope="module")
def serial_refs():
    """Uninterrupted serial ground truth, one result per seed."""
    return {seed: lpq_quantize(spec=_spec(seed)) for seed in SEEDS}


def _assert_bitwise(record: dict, ref) -> None:
    assert record["fitness"] == ref.fitness
    assert record["solution"] == [
        [p.n, p.es, p.rs, p.sf] for p in ref.solution.layer_params
    ]


def _wait_states(server, want: dict, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        states = {name: server.job_state(name) for name in want}
        if states == want:
            return
        bad = [n for n, s in states.items()
               if s in ("failed",) and want[n] != "failed"]
        assert not bad, {
            n: server._get_job(n).error for n in bad
        }
        time.sleep(0.05)
    raise AssertionError(
        f"timed out waiting for {want}, at "
        f"{ {n: server.job_state(n) for n in want} }"
    )


class TestRestartRecovery:
    """Satellite 1: kill the daemon at a seeded point, restart it on the
    same journal/cache dir, and demand bitwise-identical results."""

    def test_crash_midrun_restart_bitwise(self, tmp_path, serial_refs):
        data_dir = tmp_path / "daemon"

        # crash exactly when j0 is done and j1 has started running: with
        # one job per round this is a deterministic batch boundary
        def crash_when(server, name, info):
            try:
                return (server.job_state("j0") == "done"
                        and server.job_state("j1") == "running")
            except ServerError:  # j1 not submitted yet
                return False

        # telemetry stays on across the crash/restart cycle (ISSUE 9):
        # live emission must not move a bit of the recovered results
        first = SearchServer(
            data_dir=data_dir, max_jobs_per_round=1,
            crash_hook=crash_when, perf=PerfRegistry(),
            metrics_interval=0.1,
        ).start()
        for idx, seed in enumerate(SEEDS):
            first.submit_job(_spec(seed), name=f"j{idx}")
        deadline = time.monotonic() + 120.0
        while first._runner.is_alive():
            assert time.monotonic() < deadline, "crash hook never fired"
            time.sleep(0.02)
        # the simulated SIGKILL left one job per lifecycle stage
        assert first.job_state("j0") == "done"
        assert first.job_state("j1") == "running"
        assert first.job_state("j2") == "queued"
        assert first.stats["executed"] == 1

        second = SearchServer(
            data_dir=data_dir, max_jobs_per_round=1, perf=PerfRegistry(),
            metrics_interval=0.1,
        ).start()
        try:
            # j0's result landed in the store before the crash → replayed
            # without re-execution; j1 was interrupted → re-queued
            assert second.stats["replayed"] == 1
            assert second.stats["recovered"] == 1
            assert second.job_state("j0") == "done"
            _wait_states(second, {"j0": "done", "j1": "done", "j2": "done"})
            assert second.stats["executed"] == 2  # j1 + j2 only
            for idx, seed in enumerate(SEEDS):
                _assert_bitwise(second.job_record(f"j{idx}"),
                                serial_refs[seed])
        finally:
            second.stop()

        # the journal proves no duplicate execution: the done job ran
        # once, the interrupted job has its pre- and post-crash attempts
        runs: dict[str, int] = {}
        for record in Journal(data_dir / "journal.jsonl").replay():
            if record["op"] == "running":
                runs[record["job"]] = runs.get(record["job"], 0) + 1
        assert runs == {"j0": 1, "j1": 2, "j2": 1}

    def test_done_jobs_served_from_copied_store(self, tmp_path,
                                                serial_refs):
        """A digest store transplanted under a fresh daemon completes
        matching submissions instantly — zero evaluation, hit counters
        prove it."""
        seed_dir = tmp_path / "seed"
        with SearchServer(data_dir=seed_dir, perf=PerfRegistry()) as server:
            server.submit_job(_spec(10), name="warm")
            _wait_states(server, {"warm": "done"})

        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        shutil.copytree(seed_dir / "results", fresh_dir / "results")
        perf = PerfRegistry()
        with SearchServer(data_dir=fresh_dir, perf=perf) as server:
            job, existing = server.submit_job(_spec(10), name="replayed")
            assert not existing
            assert job.state == "done" and job.cached
            assert server.stats == {
                "executed": 0, "replayed": 1, "recovered": 0,
            }
            _assert_bitwise(server.job_record("replayed"), serial_refs[10])
            assert perf.cache("serve.results").hits == 1
            # a novel spec is still a store miss and actually runs
            job2, _ = server.submit_job(_spec(11), name="cold")
            assert not job2.cached
            _wait_states(server, {"cold": "done"})
            assert server.stats["executed"] == 1

    def test_done_job_from_other_numerics_reruns_on_restart(
            self, tmp_path, serial_refs):
        """A job the journal calls done, whose stored record carries
        another numerics fingerprint (the daemon restarted on other
        kernels or after a bit change), re-runs instead of serving a
        record this host would not compute — or failing to serve any."""
        import json

        data_dir = tmp_path / "daemon"
        with SearchServer(data_dir=data_dir, perf=PerfRegistry()) as server:
            server.submit_job(_spec(10), name="j")
            _wait_states(server, {"j": "done"})
            digest = server._get_job("j").digest
        path = data_dir / "results" / f"{digest}.json"
        record = json.loads(path.read_text())
        path.write_text(json.dumps({**record, "fingerprint": "0" * 16}))
        with SearchServer(data_dir=data_dir, perf=PerfRegistry()) as server:
            _wait_states(server, {"j": "done"})
            assert server.stats["executed"] == 1
            assert server.stats["replayed"] == 0
            rerun = server.job_record("j")
            _assert_bitwise(rerun, serial_refs[10])
            assert rerun == {**record, "wall_s": rerun["wall_s"]}

    def test_unreadable_journal_spec_is_skipped_on_restart(
            self, tmp_path, serial_refs, capsys):
        """A journal written by another build can hold a spec this build
        cannot parse (here a fitness field it does not know).  The
        restarted daemon skips that one job, logs why, recovers the
        journal's other jobs and keeps accepting submissions."""
        from repro.quant import FitnessConfig

        data_dir = tmp_path / "daemon"
        with SearchServer(data_dir=data_dir, perf=PerfRegistry()) as server:
            server.submit_job(_spec(10), name="done")
            _wait_states(server, {"done": "done"})
        stale = _spec(11).to_dict()
        stale["fitness"] = {**FitnessConfig().to_dict(), "old_knob": 64}
        journal = Journal(data_dir / "journal.jsonl")
        journal.append("submitted", "stale", spec=stale, priority=0)
        journal.append("submitted", "pending", spec=_spec(11).to_dict(),
                       priority=0)
        journal.close()
        capsys.readouterr()

        with SearchServer(data_dir=data_dir, perf=PerfRegistry(),
                          verbose=True) as server:
            assert "cannot rebuild job 'stale'" in capsys.readouterr().out
            with pytest.raises(ServerError, match="unknown job"):
                server.job_state("stale")
            assert server.stats["replayed"] == 1
            server.submit_job(_spec(12), name="new")
            _wait_states(server, {"done": "done", "pending": "done",
                                  "new": "done"})
            assert server.stats["executed"] == 2
            for name, seed in (("done", 10), ("pending", 11), ("new", 12)):
                _assert_bitwise(server.job_record(name), serial_refs[seed])

    def test_sigkill_subprocess_restart(self, tmp_path, serial_refs):
        """The real thing: ``run_server.py`` killed with SIGKILL mid-run,
        restarted on the same ``--data-dir``, clients reconnect and the
        sweep still matches the serial ground truth."""
        repo = Path(__file__).resolve().parents[2]
        data_dir = tmp_path / "daemon"
        journal = data_dir / "journal.jsonl"

        def launch():
            proc = subprocess.Popen(
                [sys.executable, str(repo / "scripts/run_server.py"),
                 "--data-dir", str(data_dir), "--quiet",
                 "--max-jobs-per-round", "1"],
                stdout=subprocess.PIPE, text=True, cwd=repo,
            )
            line = proc.stdout.readline()
            assert line.startswith("server listening on "), line
            return proc, line.split()[-1]

        proc, address = launch()
        try:
            client = SearchClient(address, reconnect_s=120.0)
            for idx, seed in enumerate(SEEDS):
                reply = client.submit(_spec(seed), job=f"j{idx}")
                assert reply["state"] in ("queued", "running")
                assert not reply["existing"]

            # deterministic-enough kill point: the first instant the
            # journal shows a job running
            deadline = time.monotonic() + 60.0
            while ("running" not in journal.read_text()
                   if journal.exists() else True):
                assert time.monotonic() < deadline, "no job ever ran"
                time.sleep(0.01)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            with pytest.raises((ConnectionError, ServerError)):
                client.status("j0")

            proc, address = launch()
            client = SearchClient(address, reconnect_s=120.0)
            for idx, seed in enumerate(SEEDS):
                record = client.wait(f"j{idx}", timeout=120.0)
                _assert_bitwise(record, serial_refs[seed])
            # every submission survived the SIGKILL; none ran twice
            runs: dict[str, int] = {}
            for record in Journal(journal).replay():
                if record["op"] == "running":
                    runs[record["job"]] = runs.get(record["job"], 0) + 1
            assert set(runs) == {"j0", "j1", "j2"}
            assert all(count <= 2 for count in runs.values())
            client.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


class TestClientProtocol:
    """Submit/status/result/cancel/list/subscribe over a live socket."""

    @pytest.fixture()
    def server(self, tmp_path):
        with SearchServer(data_dir=tmp_path / "d",
                          perf=PerfRegistry()) as srv:
            yield srv

    def test_submit_stream_result_roundtrip(self, server, serial_refs):
        client = SearchClient(server.address)
        reply = client.submit(_spec(10), job="search")
        assert reply["job"] == "search"
        events = []
        record = client.wait("search", on_event=events.append,
                             timeout=120.0)
        _assert_bitwise(record, serial_refs[10])
        kinds = [e["event"] for e in events]
        assert "progress" in kinds
        assert events[-1]["final"] and events[-1]["data"]["state"] == "done"
        progress = [e for e in events if e["event"] == "progress"]
        assert all(e["data"]["evaluations"] > 0 for e in progress)
        # resubmitting the same search is a digest dedupe, not a re-run
        again = client.submit(_spec(10))
        assert again["existing"] and again["job"] == "search"
        assert client.status("search")["state"] == "done"
        client.close()

    def test_unknown_and_malformed_requests_keep_session_alive(
        self, server
    ):
        """Satellite 3's live half: a bad frame gets a clean error reply
        and the session keeps serving — only stream corruption ends it
        (contrast: the worker protocol closes on unknown frames)."""
        client = SearchClient(server.address)
        with pytest.raises(ServerError, match="expected one of"):
            client._request({"type": "frobnicate"})
        with pytest.raises(ServerError, match="submit needs a spec"):
            client._request({"type": "submit", "spec": "nope"})
        with pytest.raises(ServerError, match="invalid spec"):
            client._request({"type": "submit",
                             "spec": {"model": 42, "wormhole": True}})
        # a population below 2 could never run a GA step: refused here
        spec = _spec(10).to_dict()
        spec["config"]["population"] = 1
        with pytest.raises(ServerError, match="population must be at least 2"):
            client._request({"type": "submit", "spec": spec})
        with pytest.raises(ServerError, match="unknown job"):
            client.status("never-submitted")
        with pytest.raises(ServerError, match="is queued|unknown job"):
            client._request({"type": "result", "job": "never-submitted"})
        # the same connection still works after every rejection
        assert client.list_jobs() == []
        client.close()

    def test_raw_socket_error_reply_names_ops(self, server):
        host, port = server.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=10.0)
        rfile = sock.makefile("rb")
        sock.sendall(frame_message(hello_message()))
        assert read_frame(rfile)["type"] == "welcome"
        sock.sendall(frame_message({"type": "frobnicate", "req": 7}))
        reply = read_frame(rfile)
        assert reply["type"] == "reply" and reply["req"] == 7
        assert not reply["ok"]
        for op in SERVER_OPS:
            assert op in reply["error"]
        sock.sendall(frame_message({"type": "list_jobs", "req": 8}))
        reply = read_frame(rfile)
        assert reply["ok"] and reply["jobs"] == []
        sock.close()

    def test_token_refusal(self, tmp_path):
        with SearchServer(data_dir=tmp_path / "d", token="s3cret",
                          perf=PerfRegistry()) as server:
            with pytest.raises(ConnectionError, match="bad auth token"):
                SearchClient(server.address, token="wrong").list_jobs()
            client = SearchClient(server.address, token="s3cret")
            assert client.list_jobs() == []
            client.close()


class TestQueueControl:
    """Priority ordering and cancellation, pinned down with a gate that
    parks the first running job at its first batch boundary."""

    @pytest.fixture()
    def gated(self, tmp_path):
        gate = threading.Event()

        def hold(server, name, info):
            gate.wait(timeout=60.0)
            return False

        server = SearchServer(
            data_dir=tmp_path / "d", max_jobs_per_round=1,
            crash_hook=hold, perf=PerfRegistry(),
        ).start()
        try:
            yield server, gate
        finally:
            gate.set()
            server.stop()

    def _park_first(self, server) -> None:
        server.submit_job(_spec(10), name="parked")
        _wait_states(server, {"parked": "running"}, timeout=60.0)

    def test_priority_beats_submission_order(self, gated):
        server, gate = gated
        self._park_first(server)
        server.submit_job(_spec(11), name="low", priority=0)
        server.submit_job(_spec(12), name="high", priority=5)
        gate.set()
        _wait_states(server, {"parked": "done", "low": "done",
                              "high": "done"})
        started = [r["job"] for r in server.journal.replay()
                   if r["op"] == "running"]
        assert started == ["parked", "high", "low"]

    def test_cancel_queued_is_immediate_and_releases_digest(self, gated):
        server, gate = gated
        self._park_first(server)
        server.submit_job(_spec(11), name="doomed")
        assert server.cancel_job("doomed").state == "cancelled"
        # terminal cancel is journaled and the digest is free again
        ops = [(r["op"], r["job"]) for r in server.journal.replay()]
        assert ("cancelled", "doomed") in ops
        job, existing = server.submit_job(_spec(11), name="second-try")
        assert not existing and job.name == "second-try"
        gate.set()
        _wait_states(server, {"parked": "done", "second-try": "done"})
        assert server.stats["executed"] == 2  # doomed never ran

    def test_cancel_running_lands_at_batch_boundary(self, gated):
        server, gate = gated
        self._park_first(server)
        assert server.cancel_job("parked").state == "running"
        gate.set()
        _wait_states(server, {"parked": "cancelled"})
        client = SearchClient(server.address)
        with pytest.raises(ServerError, match="cancelled"):
            client.wait("parked", timeout=30.0)
        client.close()


@contextlib.contextmanager
def _backend(name: str):
    """The daemon's executor for ``name``; a remote one gets a two-worker
    in-process fleet for the duration."""
    if name != "remote":
        yield ExecutorConfig(name, workers=2 if name == "process" else None)
        return
    with local_worker_fleet(2) as addresses:
        yield ExecutorConfig("remote", addresses=addresses)


class TestContinuousAdmission:
    """A job accepted while another runs joins the running scheduler
    instead of waiting for it to drain."""

    @pytest.mark.parametrize("backend", ["serial", "process", "remote"])
    def test_late_job_starts_before_running_job_ends(self, tmp_path,
                                                      serial_refs, backend):
        held, gate = threading.Event(), threading.Event()

        def hold(server, name, info):
            if name == "j0" and info["seq"] == 0:
                held.set()
                gate.wait(timeout=60.0)
            return False

        with _backend(backend) as executor:
            server = SearchServer(
                data_dir=tmp_path / "d", executor=executor,
                crash_hook=hold, perf=PerfRegistry(),
            ).start()
            try:
                server.submit_job(_spec(10), name="j0")
                assert held.wait(60.0), "j0 never reached a batch boundary"
                server.submit_job(_spec(11), name="j1")
                gate.set()
                _wait_states(server, {"j0": "done", "j1": "done"})
                ops = [(r["op"], r["job"])
                       for r in server.journal.replay()]
                for idx, seed in enumerate((10, 11)):
                    _assert_bitwise(server.job_record(f"j{idx}"),
                                    serial_refs[seed])
            finally:
                gate.set()
                server.stop()
        assert ops.index(("running", "j1")) < ops.index(("done", "j0"))


class TestBoundsSoak:
    """Twelve tiny jobs in three bursts through one daemon over a
    two-worker fleet: one dial per worker per busy period, no worker
    session holding more replicas than there are jobs in flight, idle
    replicas within their bound and stripped of cached tensors, a
    scheduler that holds no finished job, and a thread count that
    levels off."""

    def test_connects_replicas_and_threads_stay_bounded(self, tmp_path,
                                                        monkeypatch):
        counts = {"connects": 0, "runs": 0}
        connect, run = SharedRemotePool._connect, SearchScheduler.run

        def counting_connect(self, address):
            counts["connects"] += 1
            return connect(self, address)

        def counting_run(self):
            counts["runs"] += 1
            return run(self)

        monkeypatch.setattr(SharedRemotePool, "_connect", counting_connect)
        monkeypatch.setattr(SearchScheduler, "run", counting_run)
        cap, bursts, per_burst = 2, 3, 4
        workers = [WorkerServer().start() for _ in range(2)]
        burst_ready = threading.Event()
        replicas: list[int] = []

        def sample(server, name, info):
            # every burst is one busy period: its jobs cannot pass their
            # first batch until the whole burst is queued
            burst_ready.wait(timeout=60.0)
            for worker in workers:
                for jobs in _session_replicas(worker):
                    replicas.append(len(jobs))
            return False

        server = SearchServer(
            data_dir=tmp_path / "d",
            executor=ExecutorConfig(
                "remote", addresses=[w.address for w in workers]),
            max_jobs_per_round=cap, crash_hook=sample, perf=PerfRegistry(),
        ).start()
        threads = []
        try:
            for burst in range(bursts):
                burst_ready.clear()
                names = []
                for idx in range(per_burst):
                    seed = 100 + burst * per_burst + idx
                    job, _ = server.submit_job(_spec(seed))
                    names.append(job.name)
                burst_ready.set()
                _wait_states(server, {name: "done" for name in names})
                # the daemon keeps each job's record; its scheduler
                # forgets the job as it finishes
                assert server._scheduler.stats()["jobs"] == {}
                states = {
                    j["job"]: j["state"]
                    for j in server.fleet_status()["jobs"]
                }
                assert all(states[name] == "done" for name in names)
                for worker in workers:
                    _assert_idle_replicas_bounded(worker)
                threads.append(_settled_thread_count())
        finally:
            burst_ready.set()
            server.stop()
            for worker in workers:
                worker.stop()
        assert server.stats["executed"] == bursts * per_burst
        # a burst queued right as the last one drains may join its run
        assert 1 <= counts["runs"] <= bursts
        assert counts["connects"] == len(workers) * counts["runs"]
        assert replicas and max(replicas) <= cap
        assert threads[-1] <= threads[0], threads
        # jobs of one identity take finished jobs' replicas
        assert sum(
            w.perf.cache("worker.replicas").hits for w in workers
        ) > 0


def _assert_idle_replicas_bounded(worker) -> None:
    """A worker keeps at most IDLE_REPLICAS idle replicas, and an idle
    replica holds no cached tensor: only its model's parameters, its
    calibration images and FP references."""
    idle = worker.idle_replicas.replicas()
    assert len(idle) <= IDLE_REPLICAS
    for replica in idle:
        evaluator = replica.evaluator
        assert len(evaluator._weight_cache) == 0
        assert not evaluator._forward_cache._records
        assert evaluator._ref_cfg is None
        assert all(c is None for c in getattr(evaluator, "_col_cache", []))
        for _, module in evaluator.model.named_modules():
            for attr in module._forward_state:
                assert getattr(module, attr) is None, attr


def _session_replicas(worker) -> list[set]:
    with worker._lock:
        sessions = list(worker._sessions)
    return [set(s._table.replicas) for s in sessions]


def _settled_thread_count(timeout: float = 10.0) -> int:
    """The process's thread count once closing pools' threads exit."""
    deadline = time.monotonic() + timeout
    count = threading.active_count()
    while time.monotonic() < deadline:
        time.sleep(0.2)
        now = threading.active_count()
        if now == count:
            return now
        count = now
    return count
