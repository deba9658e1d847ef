"""Always-on search daemon: specs over the socket, durable on disk.

:class:`SearchServer` is the service front door the rest of the stack
builds toward (CLI: ``scripts/run_server.py``).  Clients speak the same
length-prefixed, CRC-checked JSON frame protocol as the worker
transport (:mod:`repro.spec.wire`): after the hello/welcome handshake
they issue ``submit`` / ``status`` / ``result`` / ``cancel`` /
``list_jobs`` / ``subscribe`` requests, and the daemon multiplexes
accepted jobs onto one :class:`~repro.serve.SearchScheduler` over any
worker-pool backend (serial / process / remote).  Admission is
continuous: a job accepted while others run joins the running scheduler
at its next chunk result, on the same pool.  Unlike the
worker transport, a malformed or unknown request gets an ``ok=false``
reply and the session *survives* — a service front door cannot let one
bad client frame kill the conversation.

Durability is two files under ``data_dir``
(:mod:`repro.serve.store`): an append-only journal of job lifecycle
records, and a result store keyed by
:meth:`repro.spec.SearchSpec.digest`.  A restarted daemon replays the
journal: ``done`` jobs serve their records straight from the store
(zero re-evaluation), ``failed`` / ``cancelled`` jobs stay terminal,
and ``submitted`` / ``running`` jobs — the ones a crash interrupted —
re-queue and re-run bitwise-identically (evaluation is deterministic,
so a re-run cannot move a bit).  Because the digest ignores the
executor, a result computed serially satisfies a later remote
submission of the same spec.

:class:`SearchClient` is the library client (``run_search.py
--server HOST:PORT`` uses it): submit specs with a priority, stream
progress events (generation / fitness / perf-counter deltas), cancel,
and ``wait()`` — which transparently reconnects if the daemon restarts
mid-job, because the job is durable on the server side.
"""

from __future__ import annotations

import contextlib
import itertools
import queue
import socket
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from ..obs import MetricsEmitter, TimeSeriesStore, get_hub, merge_samples
from ..parallel import ExecutorConfig
from ..parallel.executor import parse_address
from ..perf import get_perf
from ..spec.spec import SearchSpec
from ..spec.wire import (
    SERVER_OPS,
    error_message,
    event_message,
    fleet_status_message,
    frame_message,
    hello_message,
    hello_refusal,
    metrics_message,
    read_frame,
    reply_message,
    subscribe_message,
    subscribe_metrics_message,
    welcome_message,
)
from .scheduler import SearchScheduler
from .store import Journal, ResultStore, result_record

__all__ = ["SearchServer", "SearchClient", "ServerError"]

HANDSHAKE_TIMEOUT_S = 10.0

#: a restart that replays at least this many journal records compacts
#: the journal
COMPACT_AT = 50_000

#: job lifecycle: queued → running → done | failed | cancelled
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_TERMINAL = ("done", "failed", "cancelled")


class ServerError(RuntimeError):
    """A search-daemon request was answered with ``ok=false``."""


class _SimulatedCrash(BaseException):
    """Raised by the ``crash_hook`` test knob: models a SIGKILL at a
    deterministic batch boundary — the runner stops dead and journals
    nothing further.  A ``BaseException`` so the scheduler's job-scoped
    ``except Exception`` recovery cannot swallow it."""


@dataclass
class _ServerJob:
    """Daemon-side bookkeeping for one submitted search."""

    name: str
    spec: SearchSpec
    digest: str
    priority: int
    order: int
    state: str = "queued"
    error: str | None = None
    cached: bool = False
    cancel_requested: bool = False
    handle: object | None = None


def _describe(job: _ServerJob) -> dict:
    return {
        "job": job.name,
        "state": job.state,
        "digest": job.digest,
        "priority": job.priority,
        "cached": job.cached,
        "error": job.error,
    }


class _ServerSession(threading.Thread):
    """One accepted client connection on a :class:`SearchServer`.

    The reader thread (this thread) parses requests; a dedicated writer
    thread drains an outbound queue, so a stalled subscriber can never
    block the daemon's runner.  Request-level problems — unknown ops,
    missing fields, invalid specs — get an ``ok=false`` reply and the
    session keeps going; only stream-level corruption (bad CRC, torn
    frame) or EOF ends it.
    """

    def __init__(self, server: "SearchServer", sock: socket.socket,
                 peer) -> None:
        super().__init__(daemon=True, name=f"repro-serve-{peer}")
        self.server = server
        self.sock = sock
        self.peer = peer
        self._out: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False

    # -- plumbing --------------------------------------------------------
    def enqueue(self, message: dict) -> None:
        """Queue one frame for the writer thread (never blocks)."""
        self._out.put(message)

    def close(self) -> None:
        self._closed = True
        self._out.put(None)
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self.sock.close()

    def _write_loop(self) -> None:
        while True:
            message = self._out.get()
            if message is None or self._closed:
                return
            try:
                self.sock.sendall(frame_message(message))
            except (OSError, ValueError):
                self.close()
                return

    # -- session ---------------------------------------------------------
    def run(self) -> None:
        writer = None
        try:
            self.sock.settimeout(HANDSHAKE_TIMEOUT_S)
            rfile = self.sock.makefile("rb")
            if not self._handshake(rfile):
                return
            self.sock.settimeout(None)
            writer = threading.Thread(
                target=self._write_loop, daemon=True,
                name=f"{self.name}-write",
            )
            writer.start()
            self._read_loop(rfile)
        except (OSError, ValueError):
            pass  # connection died or stream corrupt: session over
        finally:
            self.close()
            self.server._session_done(self)

    def _handshake(self, rfile) -> bool:
        refusal = hello_refusal(read_frame(rfile), self.server.token,
                                "server")
        if refusal is not None:
            self._send_now(error_message(refusal))
            self.server._log(f"refused {self.peer}: {refusal}")
            return False
        self._send_now(welcome_message(capacity=1))
        self.server._log(f"accepted {self.peer}")
        return True

    def _send_now(self, message: dict) -> None:
        with contextlib.suppress(OSError):
            self.sock.sendall(frame_message(message))

    def _read_loop(self, rfile) -> None:
        while not self._closed:
            message = read_frame(rfile)
            if message is None:
                return  # clean EOF: client went away
            kind = message.get("type")
            if kind == "ping":
                self.enqueue({"type": "pong", "t": message.get("t")})
                continue
            if kind == "bye":
                return
            req = message.get("req")
            try:
                payload = self._handle(kind, message)
            except ServerError as exc:
                self.enqueue(reply_message(req, error=str(exc)))
                continue
            except Exception as exc:  # lint: disable=broad-except -- session survival: a malformed request is answered, not fatal
                # a malformed request must not kill the session: reply
                # with the problem and keep listening
                self.enqueue(reply_message(
                    req, error=f"bad request: {exc!r}"
                ))
                continue
            self.enqueue(reply_message(req, payload))

    # -- request dispatch ------------------------------------------------
    def _handle(self, kind, message: dict) -> dict:
        server = self.server
        if kind == "submit":
            spec_payload = message.get("spec")
            if not isinstance(spec_payload, dict):
                raise ServerError("submit needs a spec object")
            try:
                spec = SearchSpec.from_dict(spec_payload)
            except (TypeError, ValueError) as exc:
                raise ServerError(f"invalid spec: {exc}") from exc
            job, existing = server.submit_job(
                spec,
                priority=message.get("priority", 0),
                name=message.get("job"),
            )
            return dict(_describe(job), existing=existing)
        if kind == "status":
            return _describe(server._get_job(message.get("job")))
        if kind == "result":
            job = server._get_job(message.get("job"))
            if job.state != "done":
                detail = f": {job.error}" if job.error else ""
                raise ServerError(
                    f"job {job.name!r} is {job.state}{detail}"
                )
            return {"job": job.name, "record": server.job_record(job.name)}
        if kind == "cancel":
            return _describe(server.cancel_job(message.get("job")))
        if kind == "list_jobs":
            return {"jobs": server.list_jobs()}
        if kind == "subscribe":
            return server._subscribe(self, message.get("job"))
        if kind == "fleet_status":
            return server.fleet_status()
        if kind == "subscribe_metrics":
            return server._subscribe_metrics(self)
        raise ServerError(
            f"unknown request type {kind!r}; expected one of {SERVER_OPS}"
        )


class SearchServer:
    """The always-on LPQ search daemon.

    Accepts framed-JSON client connections, queues submitted
    :class:`~repro.spec.SearchSpec` jobs durably (journal + digest-keyed
    result store under ``data_dir``), and runs them on one
    :class:`~repro.serve.SearchScheduler` over ``executor`` — the same
    :class:`~repro.parallel.ExecutorConfig` knob as everywhere else, so
    the daemon fronts a serial process or a remote worker fleet with
    one argument.  The runner thread drives the scheduler for as long
    as jobs remain (a *busy period*, on one pool — a remote fleet is
    dialed once per busy period), and a job accepted meanwhile joins
    it at the next chunk result.  Jobs start highest ``priority``
    first, ties in submission order, with at most
    ``max_jobs_per_round`` in flight (0: no cap).  Results are
    bitwise-identical to standalone :func:`repro.quant.lpq_quantize`
    runs: restarts, backends, admission order and crash-recovery
    re-runs cannot move a bit.

    >>> from repro.quant import LPQConfig
    >>> from repro.spec import CalibSpec, SearchSpec
    >>> from repro.serve.server import SearchClient, SearchServer
    >>> spec = SearchSpec(model="tiny:mlp", calib=CalibSpec(batch=4, seed=3),
    ...                   config=LPQConfig(population=3, passes=1, cycles=1,
    ...                                    diversity_parents=2,
    ...                                    hw_widths=(4, 8), seed=7))
    >>> server = SearchServer().start()     # ephemeral port, temp data dir
    >>> client = SearchClient(server.address)
    >>> job = client.submit(spec)["job"]
    >>> record = client.wait(job)           # streams progress, returns record
    >>> len(record["solution"]) == len(client.wait(job)["solution"])
    True
    >>> client.status(job)["state"]         # second wait hit the store
    'done'
    >>> client.close(); server.stop()
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        data_dir=None,
        executor: ExecutorConfig | None = None,
        target_chunk_s: float = 0.25,
        max_jobs_per_round: int = 0,
        verbose: bool = False,
        perf=None,
        crash_hook=None,
        metrics_interval: float = 0.0,
        timeseries=None,
    ) -> None:
        self.host = host
        self.port = port
        self.token = token
        if data_dir is None:
            # convenience for tests/doctests: durable only for this
            # server's lifetime — pass a real directory in production
            data_dir = tempfile.mkdtemp(prefix="repro-server-")
        self.data_dir = Path(data_dir)
        self.executor_config = executor or ExecutorConfig()
        self.verbose = verbose
        self.perf = perf if perf is not None else get_perf()
        #: test knob: ``crash_hook(server, job, info)`` runs at every
        #: batch boundary; returning true simulates a SIGKILL there —
        #: the runner halts instantly and journals nothing further
        self.crash_hook = crash_hook
        #: lifetime counters: jobs actually evaluated here, jobs served
        #: from the digest store, interrupted jobs re-queued at startup
        self.stats = {"executed": 0, "replayed": 0, "recovered": 0}
        #: live-telemetry knobs (repro.obs): sampling interval for the
        #: merged fleet stream (0 = off) and the directory the sampled
        #: trajectory persists into (None = not persisted)
        self.metrics_interval = float(metrics_interval)
        self.timeseries_dir = timeseries
        self.timeseries: TimeSeriesStore | None = None
        self._emitter: MetricsEmitter | None = None
        self._hub_unsubscribe = None
        #: worker samples accumulated off the hub since the last tick
        self._worker_samples: dict[str, list] = {}
        self._metric_subs: set[_ServerSession] = set()
        #: one scheduler for the daemon's life; its ``run()`` spans a
        #: busy period and admits the jobs sessions submit meanwhile
        self._scheduler = SearchScheduler(
            executor=self.executor_config,
            target_chunk_s=target_chunk_s,
            perf=self.perf,
            max_active_jobs=max_jobs_per_round or None,
            on_started=self._on_started,
            on_batch=self._on_batch,
            on_finished=self._on_finished,
        )
        self.journal: Journal | None = None
        self.store: ResultStore | None = None
        self._jobs: dict[str, _ServerJob] = {}
        self._by_digest: dict[str, str] = {}
        self._subs: dict[str, set[_ServerSession]] = {}
        self._sessions: set[_ServerSession] = set()
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._order = itertools.count()
        self._autoname = itertools.count(1)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._runner: threading.Thread | None = None
        self._closed = False
        self._suppress = False  # kill(): journal nothing further
        self._started = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SearchServer":
        """Recover state from ``data_dir``, bind, and begin serving."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self.journal = Journal(self.data_dir / "journal.jsonl",
                               perf=self.perf)
        self.store = ResultStore(self.data_dir / "results", perf=self.perf)
        self._recover()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(32)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name="repro-serve-accept",
        )
        self._accept_thread.start()
        self._runner = threading.Thread(
            target=self._run_loop, daemon=True, name="repro-serve-runner",
        )
        self._runner.start()
        if self.timeseries_dir is not None:
            self.timeseries = TimeSeriesStore(
                Path(self.timeseries_dir) / "timeseries.jsonl",
                perf=self.perf,
            )
        if self.metrics_interval > 0:
            self._hub_unsubscribe = get_hub().subscribe(
                self._on_worker_sample
            )
            self._emitter = MetricsEmitter(
                self.perf, self._emit_fleet_sample, self.metrics_interval,
                source=f"server:{self.address}",
                gauges=self._metrics_gauges,
            )
            self._emitter.start()
        return self

    @property
    def address(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def stop(self) -> None:
        """Graceful shutdown: interrupt the running jobs at the next
        batch boundary *without* journaling terminal records for them —
        they stay ``running`` in the journal (and queued ones
        ``submitted``), so a restart re-queues and re-runs them."""
        self._shutdown(suppress=False)

    def kill(self) -> None:
        """Abrupt shutdown (tests): as close to SIGKILL as an
        in-process server can get — everything stops now and nothing
        more reaches the journal or the store."""
        self._shutdown(suppress=True)

    def _shutdown(self, suppress: bool) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._suppress = self._suppress or suppress
            for job in self._jobs.values():
                if job.handle is not None:  # queued or running
                    job.handle.cancel()
            self._wake.notify_all()
            sessions = list(self._sessions)
        if self._hub_unsubscribe is not None:
            self._hub_unsubscribe()
            self._hub_unsubscribe = None
        if self._emitter is not None:
            # flush one final fleet sample (to subscribers still
            # connected and into the time series) before tearing down
            self._emitter.stop()
            self._emitter = None
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        for session in sessions:
            session.close()
        if self._runner is not None:
            self._runner.join(timeout=30.0)
        if self.journal is not None:
            self.journal.close()
        if self.timeseries is not None:
            self.timeseries.close()
        self._log("server stopped")

    def serve_forever(self) -> None:
        """Block until the server is stopped (CLI main loop)."""
        while not self._closed:
            time.sleep(0.2)

    def __enter__(self) -> "SearchServer":
        return self if self._started else self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- recovery --------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild the job table from the journal: done jobs point at
        the store, failed and cancelled jobs stay terminal, and
        submitted/running jobs — the ones a crash interrupted — re-queue
        (unless the store already holds their digest, in which case
        they complete for free).  A done job whose stored record is
        gone, or was written under other numerics, re-queues too."""
        records = self.journal.replay()
        states: dict[str, dict] = {}
        for record in records:
            op, name = record.get("op"), record.get("job")
            if op == "submitted":
                states[name] = {
                    "spec": record.get("spec"),
                    "priority": record.get("priority", 0),
                    "state": "queued",
                    "error": None,
                }
            elif name in states:
                if op in ("running", "done", "failed", "cancelled"):
                    states[name]["state"] = (
                        "running" if op == "running" else op
                    )
                if op == "failed":
                    states[name]["error"] = record.get("error")
        for name, info in states.items():
            try:
                spec = SearchSpec.from_dict(info["spec"])
            except (TypeError, ValueError) as exc:
                self._log(f"cannot rebuild job {name!r}: {exc}")
                continue
            job = _ServerJob(
                name=name, spec=spec, digest=spec.digest(),
                priority=int(info["priority"]), order=next(self._order),
            )
            if info["state"] in ("failed", "cancelled"):
                job.state, job.error = info["state"], info["error"]
            else:
                # a done job's record is read again, not trusted: one
                # written under other numerics is a miss and re-runs
                if self.store.load(job.digest) is not None:
                    job.state, job.cached = "done", True
                    self.stats["replayed"] += 1
                    if info["state"] != "done":
                        # the result landed in the store before the
                        # crash could journal it (or an identical spec
                        # already ran): done, zero re-evaluation
                        self.journal.append("done", name, digest=job.digest,
                                            cached=True)
                else:
                    job.state = "queued"
                    if info["state"] == "running":
                        self.stats["recovered"] += 1
                    self._enqueue(job)
            self._jobs[name] = job
            if job.state not in ("failed", "cancelled"):
                self._by_digest[job.digest] = name
        if len(records) >= COMPACT_AT:
            dropped = self.journal.compact()
            self._log(f"compacted journal: dropped {dropped} records")
        if self._jobs:
            self._log(
                f"recovered {len(self._jobs)} job(s): "
                f"{self.stats['replayed']} from store, "
                f"{self.stats['recovered']} interrupted re-queued"
            )

    # -- submission / queries (called from sessions) ---------------------
    def submit_job(self, spec: SearchSpec, priority: int = 0,
                   name: str | None = None) -> tuple[_ServerJob, bool]:
        """Queue one spec; returns ``(job, existing)`` where ``existing``
        is true when an equal-digest job already covered it."""
        if not spec.serializable:
            raise ServerError(
                "spec must name a registered model and a calib descriptor"
            )
        digest = spec.digest()
        with self._lock:
            if self._closed:
                raise ServerError("server is stopping")
            current = self._by_digest.get(digest)
            if current is not None:
                return self._jobs[current], True
            requested = name or spec.name
            job_name = requested or f"job-{next(self._autoname)}"
            while job_name in self._jobs:
                if requested:
                    raise ServerError(
                        f"job name {job_name!r} is taken by a different "
                        "spec"
                    )
                job_name = f"job-{next(self._autoname)}"
            job = _ServerJob(
                name=job_name, spec=spec, digest=digest,
                priority=int(priority), order=next(self._order),
            )
            self._journal("submitted", job, spec=self._spec_payload(spec),
                          priority=job.priority, digest=digest)
            self._jobs[job_name] = job
            self._by_digest[digest] = job_name
            if self.store.load(digest) is not None:
                job.cached = True
                self.stats["replayed"] += 1
                self._finish(job, "done")
            else:
                self._enqueue(job)
                self._wake.notify_all()
        return job, False

    def _enqueue(self, job: _ServerJob) -> None:
        """Hand a queued job to the scheduler.  Cheap: the model and
        calibration batch are built when the job starts, on the runner
        thread, not on the session thread that accepted it."""
        try:
            job.handle = self._scheduler.submit(
                job.name, spec=job.spec, priority=job.priority
            )
        except Exception:  # lint: disable=broad-except -- job isolation: a spec the scheduler rejects fails that job record only
            self._finish(job, "failed", error=traceback.format_exc())

    @staticmethod
    def _spec_payload(spec: SearchSpec) -> dict:
        payload = spec.to_dict()
        if payload.get("executor") and payload["executor"].get("token"):
            # the worker auth token is a shared secret; the journal is
            # a plain file on disk
            payload["executor"]["token"] = None
        return payload

    def _get_job(self, name) -> _ServerJob:
        with self._lock:
            job = self._jobs.get(name)
        if job is None:
            raise ServerError(f"unknown job {name!r}")
        return job

    def job_record(self, name) -> dict:
        """A done job's result record, read from the store on every
        call: the daemon keeps no record of its own, so its memory does
        not grow with the jobs it has finished.  The read is not a
        cache lookup, so ``serve.results`` does not count it."""
        job = self._get_job(name)
        record = self.store.read(job.digest)
        if record is None:
            raise ServerError(
                f"job {job.name!r} finished but its record is missing "
                "from the result store"
            )
        return record

    def job_state(self, name) -> str:
        return self._get_job(name).state

    def list_jobs(self) -> list[dict]:
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.order)
            return [_describe(job) for job in jobs]

    def cancel_job(self, name) -> _ServerJob:
        """Cancel: immediate for queued jobs, next batch boundary for
        running ones; a no-op for terminal jobs."""
        job = self._get_job(name)
        with self._lock:
            if job.state in _TERMINAL:
                return job
            job.cancel_requested = True
            if job.handle is not None:
                job.handle.cancel()
            if job.state == "running":
                return job  # the scheduler journals the terminal state
            # a queued job ends now; the scheduler drops it unstarted
            self._finish(job, "cancelled")
        return job

    def _subscribe(self, session: _ServerSession, name) -> dict:
        job = self._get_job(name)
        with self._lock:
            # a terminal job streams nothing — the reply snapshot is
            # already the final state (checked under the lock, so a
            # finishing job cannot slip between check and registration)
            if job.state not in _TERMINAL:
                self._subs.setdefault(job.name, set()).add(session)
        return _describe(job)

    # -- the runner ------------------------------------------------------
    def _has_queued(self) -> bool:
        return any(
            job.state == "queued" and job.handle is not None
            and not job.handle.finished
            for job in self._jobs.values()
        )

    def _run_loop(self) -> None:
        """One scheduler ``run()`` per busy period: it returns once no
        job is queued or running, and the next accepted job starts the
        next one."""
        while True:
            with self._wake:
                while not self._closed and not self._has_queued():
                    self._wake.wait(0.2)
                if self._closed:
                    return
            try:
                self._scheduler.run()
            except _SimulatedCrash:
                with self._lock:
                    self._suppress = True
                    self._closed = True
                self._log("simulated crash: runner halting")
                return
            except Exception:  # lint: disable=broad-except -- daemon survival: a scheduler crash fails the running jobs, not the server
                error = traceback.format_exc()
                with self._lock:
                    stuck = [j for j in self._jobs.values()
                             if j.state == "running"]
                for job in stuck:
                    self._finish(job, "failed", error=error)

    def _on_started(self, name: str) -> None:
        """Scheduler hook: ``name`` leaves the queue and starts now."""
        with self._lock:
            job = self._jobs.get(name)
            if job is None or job.state != "queued":
                return  # cancelled while it waited
            job.state = "running"
            self._journal("running", job, digest=job.digest)
        self._emit_state(job, final=False)

    def _on_batch(self, name: str, info: dict) -> None:
        with self._lock:
            job = self._jobs.get(name)
        if job is not None:
            self._emit_event(job, "progress", info, final=False)
        if self.crash_hook is not None and self.crash_hook(self, name,
                                                          info):
            raise _SimulatedCrash()

    def _on_finished(self, name: str, handle) -> None:
        # the job's record goes to the result store below; the
        # scheduler's copy would otherwise stay for the daemon's life
        self._scheduler._forget(name)
        with self._lock:
            job = self._jobs.get(name)
            if job is None or self._suppress or job.state in _TERMINAL:
                return
            if handle.done:
                self.store.store(
                    job.digest, result_record(job.spec, handle.result(), None)
                )
                self.stats["executed"] += 1
                self._finish(job, "done")
            elif handle.cancelled and not job.cancel_requested:
                # interrupted by a graceful stop(), not by a client:
                # journal nothing — the journal still says ``running``,
                # which is exactly what re-queues the job on restart
                job.state = "queued"
                job.handle = None
            elif handle.cancelled:
                self._finish(job, "cancelled")
            else:
                self._finish(job, "failed", error=handle.error)

    # -- terminal bookkeeping / events -----------------------------------
    def _finish(self, job: _ServerJob, state: str,
                error: str | None = None) -> None:
        with self._lock:
            job.state = state
            job.error = error
            job.handle = None
            fields = {"digest": job.digest}
            if error is not None:
                fields["error"] = error
            if state == "done" and job.cached:
                fields["cached"] = True
            self._journal(state, job, **fields)
            if state in ("failed", "cancelled"):
                # release the digest so the spec can be resubmitted
                if self._by_digest.get(job.digest) == job.name:
                    del self._by_digest[job.digest]
        self._emit_state(job, final=True)

    def _journal(self, op: str, job: _ServerJob, **fields) -> None:
        if self._suppress or self.journal is None:
            return
        self.journal.append(op, job.name, **fields)

    def _emit_state(self, job: _ServerJob, final: bool) -> None:
        self._emit_event(job, "state", {
            "state": job.state,
            "cached": job.cached,
            "error": job.error,
        }, final=final)

    def _emit_event(self, job: _ServerJob, kind: str, data: dict,
                    final: bool) -> None:
        with self._lock:
            targets = list(self._subs.get(job.name, ()))
            if final:
                self._subs.pop(job.name, None)
        if not targets:
            return
        message = event_message(job.name, kind, data, final=final)
        for session in targets:
            session.enqueue(message)

    # -- live telemetry (repro.obs) ---------------------------------------
    def fleet_status(self) -> dict:
        """One-shot fleet snapshot (the ``fleet_status`` op): every
        job's lifecycle state, the scheduler's advisory stats (queue
        depth, worker parallelism, per-worker membership on the remote
        backend), the daemon's lifetime counters, the telemetry
        configuration, and the latest sample per source off the
        process-ambient hub — so a one-shot poller (``watch_fleet.py
        --once``) needs no subscription window."""
        with self._lock:
            jobs = [
                _describe(job)
                for job in sorted(
                    self._jobs.values(), key=lambda j: j.order
                )
            ]
            stats = dict(self.stats)
        return {
            "address": self.address,
            "jobs": jobs,
            "scheduler": self._scheduler.stats(),
            "stats": stats,
            "metrics": {
                "enabled": self.metrics_interval > 0,
                "interval_s": self.metrics_interval,
                "timeseries": (
                    str(self.timeseries.path)
                    if self.timeseries is not None else None
                ),
            },
            "workers": get_hub().latest(),
        }

    def _subscribe_metrics(self, session: _ServerSession) -> dict:
        """Register ``session`` for the merged fleet metrics stream.
        The reply says whether emission is enabled; a disabled daemon
        accepts the request but will stream nothing (clients surface
        that from the flag)."""
        enabled = self.metrics_interval > 0
        if enabled:
            with self._lock:
                self._metric_subs.add(session)
        return {"enabled": enabled, "interval_s": self.metrics_interval}

    def _metrics_gauges(self) -> dict:
        with self._lock:
            gauges = {
                "sessions": len(self._sessions),
                "metric_subscribers": len(self._metric_subs),
            }
            for state in JOB_STATES:
                gauges[f"jobs_{state}"] = 0
            for job in self._jobs.values():
                gauges[f"jobs_{job.state}"] += 1
        return gauges

    def _on_worker_sample(self, sample: dict) -> None:
        """Hub subscriber: park each worker sample until the next fleet
        tick folds it in (many worker ticks may land between two server
        ticks; all of their deltas are merged, none dropped)."""
        with self._lock:
            source = str(sample.get("source", "worker:?"))
            self._worker_samples.setdefault(source, []).append(sample)

    def _emit_fleet_sample(self, sample: dict) -> None:
        """Emitter sink: fold the worker samples parked since the last
        tick into one fleet-wide ``metrics`` frame around the daemon's
        own delta, append it to the time series, and fan it out to every
        ``subscribe_metrics`` session.  Runs on the emitter thread; all
        I/O happens outside the server lock."""
        with self._lock:
            pending, self._worker_samples = self._worker_samples, {}
            subscribers = list(self._metric_subs)
        workers = []
        for source, batch in sorted(pending.items()):
            last = batch[-1]
            workers.append({
                "source": source,
                "seq": last.get("seq"),
                "t": last.get("t"),
                "delta": merge_samples(batch),
                "gauges": last.get("gauges") or {},
                "samples": len(batch),
            })
        message = metrics_message(
            sample["source"], sample["seq"], sample["t"],
            delta=sample["delta"], gauges=sample["gauges"],
            workers=workers, status=self._scheduler.stats(),
        )
        if self.timeseries is not None:
            record = {k: v for k, v in message.items() if k != "type"}
            with contextlib.suppress(OSError, ValueError):
                self.timeseries.append(record)
        for session in subscribers:
            session.enqueue(message)

    # -- plumbing --------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return
            session = _ServerSession(self, sock, peer)
            with self._lock:
                if self._closed:
                    session.close()
                    return
                self._sessions.add(session)
            session.start()

    def _session_done(self, session: _ServerSession) -> None:
        with self._lock:
            self._sessions.discard(session)
            self._metric_subs.discard(session)
            for subscribers in self._subs.values():
                subscribers.discard(session)

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[serve {self.host}:{self.port}] {message}",
                  flush=True)


class SearchClient:
    """Synchronous client for a :class:`SearchServer`.

    One socket, requests serialized by an internal lock; event frames
    that arrive while a reply is pending are buffered for the active
    subscription.  Transport loss surfaces as ``ConnectionError`` and
    the next request transparently redials — :meth:`wait` builds its
    reconnect-until-deadline loop on exactly that, because a submitted
    job is durable on the server side no matter what happens to this
    connection.  Not safe for concurrent use from multiple threads.
    """

    def __init__(self, address: str, token: str | None = None,
                 reconnect_s: float = 60.0) -> None:
        self.address = address
        self.token = token
        #: how long :meth:`wait` keeps redialing a vanished server
        #: before giving up (a restarting daemon is back within this)
        self.reconnect_s = reconnect_s
        self._lock = threading.RLock()
        self._sock: socket.socket | None = None
        self._rfile = None
        self._req = itertools.count(1)
        self._events: list[dict] = []
        self._metrics: list[dict] = []

    # -- connection ------------------------------------------------------
    def _ensure(self) -> None:
        if self._sock is not None:
            return
        host, port = parse_address(self.address)
        try:
            sock = socket.create_connection(
                (host, port), timeout=HANDSHAKE_TIMEOUT_S
            )
        except OSError as exc:
            raise ConnectionError(
                f"cannot reach search server {self.address}: {exc}"
            ) from exc
        rfile = sock.makefile("rb")
        try:
            sock.sendall(frame_message(hello_message(self.token)))
            reply = read_frame(rfile)
        except (OSError, ValueError) as exc:
            with contextlib.suppress(OSError):
                sock.close()
            raise ConnectionError(
                f"handshake with server {self.address} failed: {exc}"
            ) from exc
        if reply is None or reply.get("type") != "welcome":
            detail = (reply or {}).get("error", "connection closed")
            with contextlib.suppress(OSError):
                sock.close()
            raise ConnectionError(
                f"server {self.address} refused the handshake: {detail}"
            )
        sock.settimeout(None)
        self._sock, self._rfile = sock, rfile

    def _drop(self) -> None:
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
        self._sock = self._rfile = None
        self._events.clear()  # buffered events died with the socket
        self._metrics.clear()

    def close(self) -> None:
        """Politely end the session (idempotent)."""
        with self._lock:
            if self._sock is not None:
                with contextlib.suppress(OSError):
                    self._sock.sendall(frame_message({"type": "bye"}))
            self._drop()

    def __enter__(self) -> "SearchClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request/reply ---------------------------------------------------
    def _request(self, message: dict) -> dict:
        with self._lock:
            self._ensure()
            req = next(self._req)
            message = dict(message, req=req)
            try:
                self._sock.sendall(frame_message(message))
                while True:
                    frame = read_frame(self._rfile)
                    if frame is None:
                        raise ValueError("server closed the connection")
                    kind = frame.get("type")
                    if kind == "reply" and frame.get("req") == req:
                        if not frame.get("ok", False):
                            raise ServerError(
                                frame.get("error") or "request failed"
                            )
                        return frame
                    if kind == "event":
                        self._events.append(frame)
                    elif kind == "metrics":
                        self._metrics.append(frame)
                    # pongs and stray replies are skipped
            except (OSError, ValueError) as exc:
                self._drop()
                raise ConnectionError(
                    f"lost connection to {self.address}: {exc}"
                ) from exc

    # -- the service API -------------------------------------------------
    def submit(self, spec, priority: int = 0,
               job: str | None = None) -> dict:
        """Queue a :class:`~repro.spec.SearchSpec` (or its dict form);
        returns the server's job snapshot (``job``, ``state``,
        ``digest``, ``cached``, ``existing``)."""
        payload = spec.to_dict() if isinstance(spec, SearchSpec) else spec
        return self._request({
            "type": "submit", "spec": payload,
            "priority": int(priority), "job": job,
        })

    def status(self, job: str) -> dict:
        return self._request({"type": "status", "job": job})

    def result(self, job: str) -> dict:
        """A done job's result record (raises :class:`ServerError`
        otherwise)."""
        return self._request({"type": "result", "job": job})["record"]

    def cancel(self, job: str) -> dict:
        return self._request({"type": "cancel", "job": job})

    def list_jobs(self) -> list[dict]:
        return self._request({"type": "list_jobs"})["jobs"]

    def events(self, job: str):
        """Subscribe and yield this job's event frames until its
        terminal event (``final=true``).  Raises ``ConnectionError`` if
        the transport drops mid-stream (resubscribe after redialing —
        the job keeps running server-side either way)."""
        reply = self._request(subscribe_message(job))
        if reply.get("state") in _TERMINAL:
            yield event_message(job, "state", {  # lint: disable=wire-frame-coverage -- synthesized client-side for already-terminal jobs, never sent on the wire
                "state": reply["state"],
                "cached": reply.get("cached", False),
                "error": reply.get("error"),
            }, final=True)
            return
        with self._lock:
            try:
                while True:
                    while self._events:
                        frame = self._events.pop(0)
                        if frame.get("job") != job:
                            continue
                        yield frame
                        if frame.get("final"):
                            return
                    frame = read_frame(self._rfile)
                    if frame is None:
                        raise ValueError("server closed the connection")
                    if frame.get("type") == "event":
                        self._events.append(frame)
                    elif frame.get("type") == "metrics":
                        self._metrics.append(frame)
            except (OSError, ValueError) as exc:
                self._drop()
                raise ConnectionError(
                    f"lost connection to {self.address}: {exc}"
                ) from exc

    def fleet_status(self) -> dict:
        """One-shot fleet snapshot: every job's state, scheduler queue
        depths, per-worker membership, and the latest telemetry sample
        per source (see :meth:`SearchServer.fleet_status`)."""
        return self._request(fleet_status_message())

    def metrics_stream(self):
        """Subscribe to the daemon's merged fleet telemetry and yield
        ``metrics`` frames until the caller stops iterating or the
        connection drops (``ConnectionError``).  Raises
        :class:`ServerError` immediately if the daemon runs with
        telemetry disabled (``metrics_interval=0``)."""
        reply = self._request(subscribe_metrics_message())
        if not reply.get("enabled"):
            raise ServerError(
                f"server {self.address} has live telemetry disabled "
                "(start it with a metrics interval, e.g. "
                "run_server.py --metrics-interval 1.0)"
            )
        with self._lock:
            try:
                while True:
                    while self._metrics:
                        yield self._metrics.pop(0)
                    frame = read_frame(self._rfile)
                    if frame is None:
                        raise ValueError("server closed the connection")
                    if frame.get("type") == "metrics":
                        self._metrics.append(frame)
                    elif frame.get("type") == "event":
                        self._events.append(frame)
            except (OSError, ValueError) as exc:
                self._drop()
                raise ConnectionError(
                    f"lost connection to {self.address}: {exc}"
                ) from exc

    def wait(self, job: str, on_event=None, timeout: float | None = None):
        """Block until ``job`` finishes; returns its result record.

        Streams events through ``on_event`` while waiting.  Survives
        server restarts: on connection loss it redials with backoff for
        up to ``reconnect_s`` (or ``timeout``) — the job is durable on
        the server, so the resubscription lands on the recovered queue.
        Raises :class:`ServerError` for failed/cancelled jobs.
        """
        deadline = None
        limit = timeout if timeout is not None else self.reconnect_s
        backoff = 0.05
        while True:
            try:
                for frame in self.events(job):
                    if on_event is not None:
                        on_event(frame)
                status = self.status(job)
                deadline = None
            except ConnectionError:
                now = time.monotonic()
                if deadline is None:
                    deadline = now + limit
                if now >= deadline:
                    raise
                time.sleep(min(backoff, 2.0))
                backoff *= 2
                continue
            state = status["state"]
            if state == "done":
                return self.result(job)
            if state in _TERMINAL:
                detail = f": {status.get('error')}" \
                    if status.get("error") else ""
                raise ServerError(f"job {job!r} {state}{detail}")
            # the subscription ended but the job is live again — the
            # daemon restarted between our subscribe and its terminal
            # event; just resubscribe
