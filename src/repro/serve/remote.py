"""Socket transport for the WorkerPool protocol: remote LPQ workers.

Jobs cross the pool boundary as plain-JSON wire payloads
(:func:`repro.spec.wire.encode_job`), so here those payloads cross a
TCP socket instead of a process-pool pipe.  Three pieces:

* :class:`WorkerServer` — a long-lived standalone worker: accepts
  client connections, verifies the token handshake, registers job
  payloads, and evaluates candidate chunks against lazily-built
  replicas (exactly the :class:`~repro.serve.SharedProcessPool` worker
  loop, behind a socket).  ``scripts/run_worker.py`` is its CLI.
* :class:`SharedRemotePool` — the client side of the
  :class:`~repro.serve.WorkerPool` protocol: connects to a fleet of
  workers, streams :class:`~repro.serve.ChunkResult` messages back to
  the scheduler's queue as they complete, heartbeats every connection,
  and requeues the in-flight chunks of a dead worker onto the
  survivors (evaluation is deterministic and side-effect-free, so a
  re-run chunk returns bit-identical fitness values).
* :class:`RemoteExecutor` — the ``remote`` member of the
  :mod:`repro.parallel` executor family.  No search runs on it:
  :func:`repro.quant.lpq_quantize` with
  ``ExecutorConfig(backend="remote", addresses=[...])`` is a one-job
  scheduler on :class:`SharedRemotePool`.

Framing is the length-prefixed JSON of :mod:`repro.spec.wire`
(:func:`~repro.spec.wire.frame_message` / ``read_frame``); every
message schema is built by that module's ``*_message`` constructors, so
client and worker cannot drift apart.  The transport inherits the
stack-wide invariant: moving a chunk to another host cannot move a bit
(``tests/serve/test_remote.py`` asserts remote ≡ serial bitwise, fleet
kills included).

A complete round trip on one machine (``local_worker_fleet`` starts
in-process servers; production workers run ``scripts/run_worker.py``):

>>> import numpy as np
>>> from repro.parallel import ExecutorConfig
>>> from repro.quant import LPQConfig, lpq_quantize
>>> from repro.serve.remote import local_worker_fleet
>>> from repro.spec import CalibSpec, SearchSpec
>>> spec = SearchSpec(model="tiny:mlp", calib=CalibSpec(batch=4),
...                   config=LPQConfig(population=3, passes=1, cycles=1,
...                                    diversity_parents=2,
...                                    hw_widths=(4, 8), seed=5))
>>> serial = lpq_quantize(spec=spec)
>>> with local_worker_fleet(2) as addresses:
...     remote = lpq_quantize(spec=SearchSpec.from_dict(
...         {**spec.to_dict(),
...          "executor": {"backend": "remote", "addresses": addresses}}))
>>> remote.solution == serial.solution and remote.fitness == serial.fitness
True
"""

from __future__ import annotations

import contextlib
import itertools
import queue
import socket
import threading
import time
import warnings

from ..obs import MetricsEmitter, get_hub
from ..parallel import EvaluatorSpec, ExecutorConfig, parse_address
from ..parallel._blas import one_blas_thread
from ..parallel._fingerprint import numerics_fingerprint
from ..parallel.executor import _IdleReplicas, _ReplicaTable
from ..perf import PerfRegistry
from ..spec import registry as spec_registry
from ..spec.blob import BlobStore, get_blob_store
from ..spec.wire import (
    _BAD_TOKEN,
    FINGERPRINT_MISMATCH,
    PROTOCOL_VERSION,
    FrameCorruptionError,
    blob_get_message,
    blob_put_message,
    collect_blob_refs,
    decode_solution,
    draining_message,
    error_message,
    frame_message,
    hello_message,
    hello_refusal,
    job_message,
    metrics_message,
    read_frame,
    release_message,
    result_message,
    task_message,
    welcome_message,
)
from .pool import ChunkResult, WorkerPool, encode_pool_wires
from .resilience import RetryPolicy

__all__ = [
    "WorkerServer",
    "SharedRemotePool",
    "RemoteExecutor",
    "local_worker_fleet",
]

#: default client heartbeat interval (seconds between pings)
HEARTBEAT_S = 2.0

#: handshake must complete within this many seconds on both ends — a
#: client talking to a wrong port, or a port-scanner talking to a
#: worker, times out cleanly instead of hanging either side
HANDSHAKE_TIMEOUT_S = 10.0

#: a worker evaluating a task blocks at most this long for a missing
#: blob to arrive from the client before failing that task
BLOB_FETCH_TIMEOUT_S = 30.0

#: drain sentinel on a session's task queue: every task enqueued before
#: it has been evaluated (FIFO), so the session may close cleanly
_DRAIN = object()


def _send_frame(sock: socket.socket, lock: threading.Lock,
                message: dict) -> None:
    """Frame and send one message; serialized per socket so concurrent
    senders (submitter, heartbeat) cannot interleave bytes."""
    data = frame_message(message)
    with lock:
        sock.sendall(data)


def _no_delay(sock: socket.socket) -> None:
    """Switch off Nagle's algorithm on a worker connection.  Every frame
    is sent whole, so batching buys nothing, and the frame that follows
    a ``release`` would otherwise wait for the peer's delayed ACK (up
    to 40 ms on Linux)."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class _FingerprintMismatch(ConnectionError):
    """A handshake refused because the two ends' numerics fingerprints
    differ (:mod:`repro.parallel._fingerprint`)."""


# -- the worker (server side) --------------------------------------------
class _WorkerSession(threading.Thread):
    """One accepted client connection on a :class:`WorkerServer`.

    The reader thread (this thread) stays responsive — it answers pings
    and enqueues tasks — while a dedicated evaluator thread works
    through the task queue, so liveness checks succeed even mid-chunk.
    Job names are session-scoped: two clients registering the same
    job name cannot collide.  A ``release`` frame joins the task queue,
    so a finished job's payload goes once its earlier tasks are done,
    and its replica joins the server's idle set
    (:attr:`WorkerServer.idle_replicas`), where a later job of any
    session with the same evaluator identity takes it.
    """

    def __init__(self, server: "WorkerServer", sock: socket.socket,
                 peer) -> None:
        super().__init__(daemon=True, name=f"repro-worker-{peer}")
        self.server = server
        self.sock = sock
        self.peer = peer
        self._send_lock = threading.Lock()
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._table = _ReplicaTable({}, blobs=server.blobs,
                                    fetch=self._fetch_blob,
                                    idle=server.idle_replicas)
        self._blob_lock = threading.Lock()
        #: digest → set by the reader thread when its blob_put arrives;
        #: the evaluator thread waits on these for fetch-on-miss
        self._blob_events: dict[str, threading.Event] = {}
        self._closed = False
        #: test hook (:meth:`WorkerServer.silence`): swallow every
        #: frame, answer nothing — a hung worker as the client sees it
        self.muted = False
        #: set once ``welcome`` is on the wire; telemetry broadcasts
        #: skip sessions still in their handshake
        self.welcomed = False

    # -- plumbing --------------------------------------------------------
    def _send(self, message: dict) -> None:
        _send_frame(self.sock, self._send_lock, message)

    def send_raw(self, data: bytes) -> None:
        """Send pre-framed bytes verbatim (the chaos harness uses this
        to put a deliberately checksum-corrupt frame on the wire)."""
        with self._send_lock:
            self.sock.sendall(data)

    def close(self) -> None:
        self._closed = True
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self.sock.close()

    # -- handshake + message loop ----------------------------------------
    def run(self) -> None:
        try:
            self.sock.settimeout(HANDSHAKE_TIMEOUT_S)
            rfile = self.sock.makefile("rb")
            if not self._handshake(rfile):
                return
            self.sock.settimeout(None)
            evaluator = threading.Thread(
                target=self._evaluate_loop, daemon=True,
                name=f"{self.name}-eval",
            )
            evaluator.start()
            try:
                self._read_loop(rfile)
            finally:
                self._tasks.put(None)  # unblock the evaluator thread
        except (OSError, ValueError):
            pass  # connection died or stream corrupt: session over
        finally:
            self.close()
            self.server._session_done(self)

    def _handshake(self, rfile) -> bool:
        message = read_frame(rfile)
        refusal = hello_refusal(message, self.server.token, "worker")
        if refusal == _BAD_TOKEN:
            self.server.auth_failures += 1
        fingerprint = numerics_fingerprint()
        reason = None
        if refusal is None and message.get("fingerprint") != fingerprint:
            refusal = (
                f"numerics fingerprint mismatch: client "
                f"{message.get('fingerprint')!r}, worker {fingerprint!r}; "
                "the worker would not reproduce the client's bits"
            )
            reason = FINGERPRINT_MISMATCH
        if refusal is not None:
            self._send(error_message(refusal, reason=reason))
            self.server._log(f"refused {self.peer}: {refusal}")
            return False
        data = frame_message(welcome_message(capacity=1,
                                             fingerprint=fingerprint))
        with self._send_lock:
            self.sock.sendall(data)
            # under the send lock: a broadcast that sees the flag sends
            # its metrics frame after the welcome, never before
            self.welcomed = True
        self.server._log(f"accepted {self.peer}")
        return True

    def _read_loop(self, rfile) -> None:
        while not self._closed:
            message = read_frame(rfile)
            if message is None:
                return  # clean EOF: client went away
            if self.muted:
                continue  # hung-host simulation: read, never react
            kind = message.get("type")
            if kind == "job":
                self._table.add(message["job"], message["payload"])
                self._request_job_blobs(message["payload"])
            elif kind == "blob_put":
                self._receive_blob(message)
            elif kind == "task":
                self.server._task_received()
                self._tasks.put(message)
            elif kind == "release":
                self._tasks.put(message)  # in order with the job's tasks
            elif kind == "ping":
                self._send({"type": "pong", "t": message.get("t")})
            elif kind == "bye":
                # a departing client gets the telemetry tail before EOF:
                # one final delta sample, so even a pool window shorter
                # than the sampling interval sees the work it dispatched
                self.server._flush_metrics()
                return
            else:
                self._send(error_message(f"unknown frame type {kind!r}"))
                return

    # -- blob transport --------------------------------------------------
    def _blob_event(self, digest: str) -> threading.Event:
        with self._blob_lock:
            return self._blob_events.setdefault(digest, threading.Event())

    def _request_job_blobs(self, payload: dict) -> None:
        """Diff a registered job's blob refs against the server store and
        ask the client for what is missing, acking what is already cached
        (warm-fleet acks are how the client counts ``bytes_saved``)."""
        refs = collect_blob_refs(payload)
        if not refs:
            return
        missing = self.server.blobs.missing(refs)
        cached = sorted(set(refs) - set(missing))
        self._send(blob_get_message(missing, cached))

    def _receive_blob(self, message: dict) -> None:
        from ..spec.serde import decode_array

        self.server.blobs.put(decode_array(message["payload"]))
        # wake any fetch waiting on the *claimed* digest; the waiter
        # re-checks the store, so a corrupt payload fails loudly there
        self._blob_event(message["digest"]).set()

    def _fetch_blob(self, digest: str):
        """Fetch-on-miss hook for :func:`repro.spec.wire.decode_job`:
        ask the client for one blob and block (evaluator thread only)
        until the reader thread has stored it."""
        with self._blob_lock:
            event = self._blob_events.get(digest)
            if event is None or event.is_set():
                # a set event is stale (its blob has since left the
                # store, e.g. after a cache drop): wait on a fresh one
                event = threading.Event()
                self._blob_events[digest] = event
        self._send(blob_get_message([digest]))
        if not event.wait(timeout=BLOB_FETCH_TIMEOUT_S):
            raise RuntimeError(
                f"timed out waiting for blob {digest!r} from the client"
            )
        return self.server.blobs.get(digest)

    # -- evaluation ------------------------------------------------------
    def _evaluate_loop(self) -> None:
        while True:
            message = self._tasks.get()
            if message is None:
                return
            if message is _DRAIN:
                # every chunk accepted before the drain signal has been
                # evaluated (the queue is FIFO); closing the socket now
                # makes the client requeue anything that raced in later
                self.close()
                return
            if message["type"] == "release":
                # even on a closed session: a pool sends its last job's
                # release just before it says bye, and the replica
                # should still go idle for the next busy period
                self._table.release(message["job"])
                continue
            if self._closed:
                return
            self.server._task_started()
            chaos = self.server.chaos
            events = chaos.on_task(self.server) if chaos is not None else ()
            if events and chaos.apply_task_events(self.server, self, events):
                continue  # the fault consumed this task (kill/disconnect)
            result = self._evaluate(message)
            if self.muted:
                continue  # hung-host simulation: compute, never reply
            if events and chaos.apply_result_events(self, events, result):
                continue  # the fault already handled (or ate) the send
            try:
                self._send(result)
            except (OSError, ValueError):
                return  # client gone; the pool requeues this chunk

    def _evaluate(self, message: dict) -> dict:
        job = message["job"]
        # decoded lazily inside run: a malformed candidate fails this
        # chunk like any other evaluation error
        fits, delta, elapsed, error = self._table.run(
            job, map(decode_solution, message["solutions"])
        )
        # telemetry only: fold the same delta the client will merge
        # into the worker's own registry, so the live metrics stream
        # reconciles with the end-of-job snapshot.  The result frame
        # is built before the accounting touches anything.
        reply = result_message(
            message["task"], job, message["seq"], message["chunk"], fits,
            delta, elapsed, error=error,
        )
        self.server._task_done(delta, len(fits or ()))
        return reply


class WorkerServer:
    """A standalone LPQ evaluation worker behind a TCP socket.

    Long-lived: serves any number of client connections (sequentially
    or concurrently), each with its own session-scoped job table.  A
    finished job's replica stays idle, caches and forward state
    dropped, in :attr:`idle_replicas`, shared by every session, so the
    next job with the same model, calibration batch, fitness config,
    objective, activation mode and layer statistics skips the build
    (the daemon redials once per busy period, so a per-session set
    would never hit).
    ``port=0`` binds an ephemeral port — read it back from
    :attr:`address`.  ``token`` (optional) is a shared secret every
    client must echo in its hello frame; mismatches are refused before
    any payload is decoded.

    The worker keeps a *server-level* :class:`~repro.spec.blob.BlobStore`
    (:attr:`blobs`): content-addressed tensors survive across client
    sessions, so a warm fleet acks re-registered blob refs instead of
    re-fetching them.  ``blob_cache`` optionally backs the store with a
    memory-mapped on-disk cache directory — a restarted worker rehydrates
    its blobs from disk with zero network traffic.

    Production workers run ``scripts/run_worker.py``; tests and
    single-host fleets may embed the server in-process via
    :func:`local_worker_fleet`.  :meth:`start` runs the process's
    OpenBLAS on one thread: a worker evaluates one chunk at a time, so
    the fleet's parallelism is its worker count (an in-process fleet
    therefore caps its host process too).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        verbose: bool = False,
        blob_cache=None,
        metrics_interval: float = 0.0,
        perf=None,
    ) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.verbose = verbose
        self.blobs = BlobStore(cache_dir=blob_cache)
        #: worker-level telemetry registry — private by default so an
        #: in-process fleet's samples are not polluted by (or polluting)
        #: the host process's ambient registry
        self.perf = perf if perf is not None else PerfRegistry()
        #: finished jobs' replicas, shared by every session; evictions
        #: count into :attr:`perf`
        self.idle_replicas = _IdleReplicas(perf=self.perf)
        #: sampling interval for the live metrics stream; 0 = off
        self.metrics_interval = float(metrics_interval)
        self._emitter: MetricsEmitter | None = None
        self.auth_failures = 0
        #: tasks accepted off the socket / begun evaluating / finished
        #: (test hooks; received - done is the live queue-depth gauge)
        self.tasks_received = 0
        self.tasks_started = 0
        self.tasks_done = 0
        self.task_started_event = threading.Event()
        #: optional fault-injection controller (:mod:`repro.serve.chaos`)
        self.chaos = None
        #: session threads that survived :meth:`stop`'s join timeout —
        #: tracked and surfaced instead of silently abandoned
        self.leaked_sessions: list = []
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._sessions: set[_WorkerSession] = set()
        self._lock = threading.Lock()
        self._closed = False
        self._draining = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "WorkerServer":
        one_blas_thread()
        listener = socket.create_server(
            (self.host, self.port), reuse_port=False
        )
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"repro-worker-accept-{self.port}",
        )
        self._accept_thread.start()
        if self.metrics_interval > 0:
            self._emitter = MetricsEmitter(
                self.perf, self._broadcast_metrics, self.metrics_interval,
                source=f"worker:{self.address}",
                gauges=self._metrics_gauges,
            )
            self._emitter.start()
        self._log(f"listening on {self.address}")
        return self

    @property
    def address(self) -> str:
        """``host:port`` as clients should dial it."""
        return f"{self.host}:{self.port}"

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            _no_delay(sock)
            session = _WorkerSession(self, sock, peer)
            with self._lock:
                if self._closed:
                    session.close()
                    return
                self._sessions.add(session)
            session.start()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, close every session.

        A session thread that outlives the join timeout is *leaked*:
        it is recorded in :attr:`leaked_sessions`, logged, and surfaced
        as a ``RuntimeWarning`` — never silently abandoned.
        """
        self._closed = True
        if self._emitter is not None:
            # flush one final sample to still-open sessions before they
            # close, so short jobs never lose their telemetry tail
            self._emitter.stop()
            self._emitter = None
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.close()
        for session in sessions:
            session.join(timeout=5)
        leaked = [s for s in sessions if s.is_alive()]
        if leaked:
            self.leaked_sessions.extend(leaked)
            names = [s.name for s in leaked]
            self._log(f"leaked {len(leaked)} session thread(s): {names}")
            warnings.warn(
                f"WorkerServer.stop: {len(leaked)} session thread(s) "
                f"still running after the join timeout: {names}",
                RuntimeWarning, stacklevel=2,
            )

    def drain(self, wait: float = 30.0) -> None:
        """Graceful retirement (the SIGTERM path): stop accepting
        connections, tell every client this worker is leaving
        (``draining`` frame, so pools stop dispatching here), finish
        every chunk already accepted, then stop.

        Anything a client managed to send after the drain signal is
        requeued by that client when the socket closes — exactly one
        result per chunk still holds fleet-wide.
        """
        self._draining = True
        self._log("draining: refusing new work, finishing in-flight")
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            with contextlib.suppress(OSError, ValueError):
                session._send(draining_message())
            session._tasks.put(_DRAIN)
        deadline = time.monotonic() + wait
        for session in sessions:
            session.join(timeout=max(0.0, deadline - time.monotonic()))
        self.stop()

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun."""
        return self._draining

    def kill(self) -> None:
        """Abrupt death (tests): drop every socket with no goodbye.
        Clients observe an EOF/reset, the loud half of worker death;
        for the quiet half — a hung host that stops responding without
        closing anything — see :meth:`silence`."""
        self.stop()

    def drop_caches(self) -> None:
        """Forget every cached blob and decoded job replica, idle ones
        included, as a restarted worker (without an on-disk blob cache)
        would have: the next task on any live session rebuilds its
        replica through the ``blob_get`` fetch-on-miss frames."""
        self.blobs.clear()
        self.idle_replicas.clear()
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            session._table.replicas.clear()

    def silence(self) -> None:
        """Go silent without closing anything (tests): every session
        keeps its socket open but stops answering pings and sending
        results, as a hung or network-partitioned worker host would.
        Only the client's liveness timeout can detect this state."""
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.muted = True

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (the ``run_worker.py`` main loop)."""
        while not self._closed:
            time.sleep(0.2)

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- session callbacks ----------------------------------------------
    def _task_received(self) -> None:
        with self._lock:
            self.tasks_received += 1

    def _task_started(self) -> None:
        with self._lock:
            self.tasks_started += 1
        self.task_started_event.set()

    def _task_done(self, delta: dict | None, evaluations: int) -> None:
        """Telemetry accounting for one evaluated chunk (success or
        failure).  Strictly passive: folds the chunk's perf delta into
        the worker-level registry and bumps the worker counters — the
        result frame the client merges is untouched."""
        with self._lock:
            self.tasks_done += 1
        self.perf.counter("worker.tasks").inc()
        if delta is not None:
            self.perf.merge_snapshot(delta)
            self.perf.counter("worker.evaluations").inc(evaluations)
        else:
            self.perf.counter("worker.task_errors").inc()

    def _metrics_gauges(self) -> dict:
        with self._lock:
            received = self.tasks_received
            done = self.tasks_done
            sessions = len(self._sessions)
        return {
            "queue_depth": max(0, received - done),
            "sessions": sessions,
            "tasks_received": received,
            "tasks_done": done,
            "draining": self._draining,
        }

    def _flush_metrics(self) -> None:
        """Emit one out-of-band sample right now (no-op with telemetry
        off; :meth:`MetricsEmitter.sample` never raises).  Invoked when
        a client says ``bye`` so short-lived pools — a scheduler round
        can outrun the sampling interval — still receive every delta."""
        emitter = self._emitter
        if emitter is not None:
            emitter.sample()

    def _broadcast_metrics(self, sample: dict) -> None:
        """Emitter sink: push one sample to every welcomed client as a
        ``metrics`` frame.  Best-effort by design — a dead or muted
        session drops the sample, never the worker; a session still in
        its handshake gets none, so ``welcome`` is always its first
        frame."""
        frame = metrics_message(
            sample["source"], sample["seq"], sample["t"],
            delta=sample["delta"], gauges=sample["gauges"],
        )
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            if session.muted or not session.welcomed:
                continue
            with contextlib.suppress(OSError, ValueError):
                session._send(frame)

    def _session_done(self, session: _WorkerSession) -> None:
        with self._lock:
            self._sessions.discard(session)

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[worker {self.port}] {message}", flush=True)


@contextlib.contextmanager
def local_worker_fleet(count: int, token: str | None = None,
                       verbose: bool = False,
                       metrics_interval: float = 0.0):
    """Start ``count`` in-process :class:`WorkerServer`\\ s on ephemeral
    localhost ports; yields their ``host:port`` addresses.

    The servers run real sockets — everything except process isolation
    matches a multi-host fleet — which is what the tests, doctests, and
    ``run_search_throughput_bench.py --backend remote`` use.
    """
    servers = [
        WorkerServer(token=token, verbose=verbose,
                     metrics_interval=metrics_interval).start()
        for _ in range(count)
    ]
    try:
        yield [server.address for server in servers]
    finally:
        for server in servers:
            server.stop()


# -- the pool (client side) ----------------------------------------------
class _RemoteWorker:
    """Client-side state for one worker connection."""

    def __init__(self, address: str, sent_counter=None) -> None:
        self.address = address
        self.sock: socket.socket | None = None
        self.send_lock = threading.Lock()
        self.reader: threading.Thread | None = None
        self.alive = False
        #: cleared by a ``draining`` frame: the worker is finishing its
        #: in-flight chunks but must not be handed anything new
        self.accepting = True
        self.capacity = 1
        self.pending: set[int] = set()  # task ids in flight here
        #: jobs registered on this connection (``job`` frames sent)
        self.jobs: set[str] = set()
        self.last_recv = time.monotonic()
        #: latest ping→pong round trip in milliseconds (telemetry only)
        self.rtt_ms: float | None = None
        #: pool-supplied ``transport.bytes_sent`` counter (optional)
        self.sent_counter = sent_counter

    def send(self, message: dict) -> None:
        data = frame_message(message)
        if self.sent_counter is not None:
            self.sent_counter.inc(len(data))
        with self.send_lock:
            self.sock.sendall(data)

    def drop(self) -> None:
        self.alive = False
        if self.sock is not None:
            with contextlib.suppress(OSError):
                self.sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                self.sock.close()


class _Task:
    """One submitted chunk, tracked until exactly one result returns.

    ``attempts`` counts requeues (worker deaths / expired deadlines
    while this chunk was in flight) against the retry budget;
    ``sent_at`` is the monotonic timestamp of the latest dispatch, the
    clock the per-chunk deadline runs on.
    """

    __slots__ = ("task", "job", "seq", "chunk", "solutions", "attempts",
                 "sent_at")

    def __init__(self, task: int, job: str, seq: int, chunk: int,
                 solutions) -> None:
        self.task = task
        self.job = job
        self.seq = seq
        self.chunk = chunk
        self.solutions = solutions
        self.attempts = 0
        self.sent_at: float | None = None


class SharedRemotePool(WorkerPool):
    """Socket-backed :class:`~repro.serve.WorkerPool`: a fleet of
    :class:`WorkerServer` workers behind one submit queue.

    On :meth:`start` the pool dials every address, performs the
    token/version handshake, and registers the full ``job → wire
    payload`` table on each worker (workers build replicas lazily on
    their first task per job, exactly like the shared process pool).
    :meth:`add` registers a new job on every live worker of the running
    pool, and :meth:`release` tells each to drop a finished one, so one
    pool can serve a search daemon's whole busy period.
    Chunks go to the live worker with the fewest in-flight tasks, and
    results stream back to the caller's queue the moment each worker
    finishes — completion order never matters because every
    :class:`~repro.serve.ChunkResult` carries its ``(job, seq, chunk)``
    tag.

    **Liveness.**  A heartbeat thread pings every worker; a worker
    whose socket errors, EOFs, sends a checksum-corrupt frame, or goes
    silent past the liveness timeout is declared dead, and every chunk
    in flight on it is requeued onto the survivors on the
    :class:`~repro.serve.resilience.RetryPolicy` backoff schedule
    (deterministic evaluation makes the re-run bit-identical; task-id
    dedupe makes redelivery impossible).  When the last worker dies,
    outstanding chunks resolve per ``on_fleet_death``: ``"fail"``
    (default) delivers error results so the scheduler fails those jobs
    cleanly rather than blocking forever; ``"local"`` evaluates them on
    an in-process fallback evaluator — slower, but bitwise-identical.

    **Numerics.**  Both handshake frames carry the numerics
    fingerprint (:mod:`repro.parallel._fingerprint`).  A worker whose
    fingerprint differs from this process's would score candidates
    with other bits, so it is refused for good and never redialed,
    counted in ``remote.fingerprint_mismatch``; its share goes to the
    rest of the fleet, and with every address refused, to the local
    fallback evaluator whatever ``on_fleet_death`` says.

    **Elasticity.**  The fleet is the configured addresses: dead ones
    are re-dialed on the same deterministic backoff, so a restarted
    worker rejoins mid-search and immediately receives a rebalanced
    share of the in-flight load; a worker announcing a drain (SIGTERM)
    finishes its chunks but is handed nothing new.  A chunk
    whose workers keep dying under it (a *poison chunk*) is quarantined
    after ``retry.max_attempts`` requeues and evaluated locally,
    flagged by the ``fault.quarantines`` counter, instead of cascading
    through the fleet.  Every recovery action increments a ``fault.*``
    counter in :attr:`perf`.
    """

    def __init__(
        self,
        wires: dict[str, dict],
        addresses,
        results: queue.SimpleQueue,
        token: str | None = None,
        heartbeat_s: float = HEARTBEAT_S,
        liveness_timeout_s: float | None = None,
        blobs: BlobStore | None = None,
        perf=None,
        retry: RetryPolicy | None = None,
        on_fleet_death: str = "fail",
    ) -> None:
        if not addresses:
            raise ValueError("SharedRemotePool requires at least one address")
        if on_fleet_death not in ("fail", "local"):
            raise ValueError(
                f"on_fleet_death must be 'fail' or 'local', got "
                f"{on_fleet_death!r}"
            )
        #: job → wire payload; the local fallback evaluator's table
        #: holds the same dict
        self._fallback = _ReplicaTable(dict(wires), blobs=blobs)
        self.wires = self._fallback.payloads
        self.addresses = [str(a) for a in addresses]
        self.token = token
        self.retry = retry if retry is not None else RetryPolicy()
        self.on_fleet_death = on_fleet_death
        # the policy may override the transport's timing defaults so a
        # committed spec file fully pins recovery behaviour
        if self.retry.heartbeat_s is not None:
            heartbeat_s = self.retry.heartbeat_s
        if self.retry.liveness_timeout_s is not None:
            liveness_timeout_s = self.retry.liveness_timeout_s
        #: the store the wires were encoded against; answers blob_get
        self._blobs = blobs
        #: digest → the encoded ref payload it appears as in the wires
        self._blob_refs = collect_blob_refs(self.wires)
        if perf is None:
            from ..perf import get_perf

            perf = get_perf()
        self.perf = perf
        self.heartbeat_s = heartbeat_s
        # a worker that has sent nothing — results, pongs, anything —
        # for this long is declared dead even though its socket never
        # errored (hung host, dropped network); generous by default
        # because the worker's reader answers pings even mid-chunk
        self.liveness_timeout = (
            liveness_timeout_s
            if liveness_timeout_s is not None
            else max(10.0, heartbeat_s * 5)
        )
        self._results = results
        self._workers: list[_RemoteWorker] = []
        self._pending: dict[int, _Task] = {}
        self._task_ids = itertools.count()
        self._lock = threading.Lock()
        self._heartbeat: threading.Thread | None = None
        self._closed = False
        #: set by close() so the heartbeat thread wakes immediately
        #: instead of sleeping out its full interval
        self._closing = threading.Event()
        #: address → [failed-redial count, next-attempt monotonic time]
        self._redial: dict[str, list] = {}
        #: chunks parked while the fleet is momentarily empty but a
        #: redial may still revive it (only with retry.fleet_wait_s > 0)
        self._parked: list[_Task] = []
        self._fleet_down_since: float | None = None
        #: lazily-started in-process fallback evaluator (quarantined
        #: poison chunks, on_fleet_death="local" degradation)
        self._local_queue: queue.SimpleQueue = queue.SimpleQueue()
        self._local_thread: threading.Thread | None = None
        self._local_lock = threading.Lock()
        #: transport threads that outlived close()'s join timeouts
        self.leaked_threads: list[str] = []
        #: address → why it was refused for good (numerics fingerprint)
        self.refused: dict[str, str] = {}

    # -- WorkerPool surface ----------------------------------------------
    @property
    def workers(self) -> int:
        """Live, accepting worker capacity (minimum 1 so chunk-count
        arithmetic in the scheduler stays well-defined while the fleet
        collapses; draining workers no longer count)."""
        with self._lock:
            live = sum(
                w.capacity for w in self._workers
                if w.alive and w.accepting
            )
        return max(1, live)

    def healthy(self) -> bool:
        with self._lock:
            return any(w.alive for w in self._workers)

    def start(self) -> "SharedRemotePool":
        try:
            for address in list(self.addresses):
                try:
                    self._workers.append(self._connect(address))
                except _FingerprintMismatch as exc:
                    self._refuse(address, exc)
        except Exception:
            # a partial fleet must not leak: drop every connection made
            # so far (their reader threads exit on the closed sockets)
            for worker in self._workers:
                worker.drop()
            raise
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, daemon=True,
            name="repro-remote-heartbeat",
        )
        self._heartbeat.start()
        return self

    def submit(self, job: str, seq: int, chunk: int, solutions) -> None:
        entry = _Task(next(self._task_ids), job, seq, chunk, list(solutions))
        with self._lock:
            self._pending[entry.task] = entry
        self._dispatch(entry)

    def add(self, job: str, spec: EvaluatorSpec, search=None) -> None:
        wire = encode_pool_wires(
            {job: spec}, {job: search} if search is not None else None,
            blobs=self._blobs,
        )[job]
        with self._lock:
            self.wires[job] = wire
            self._blob_refs.update(collect_blob_refs(wire))
            # a worker still connecting is not listed yet: _admit
            # registers the job on it before it can take a task
            targets = [w for w in self._workers if w.alive]
            for worker in targets:
                worker.jobs.add(job)
        for worker in targets:
            try:
                worker.send(job_message(job, wire))
            except (OSError, ValueError):
                self._worker_died(worker)

    def release(self, job: str) -> None:
        with self._lock:
            if job not in self.wires:
                return
            self._fallback.release(job)
            targets = [w for w in self._workers if w.alive]
            for worker in targets:
                worker.jobs.discard(job)
        for worker in targets:
            try:
                worker.send(release_message(job))
            except (OSError, ValueError):
                self._worker_died(worker)

    def close(self) -> None:
        self._closed = True
        self._closing.set()
        with self._lock:
            workers = list(self._workers)
            parked, self._parked = self._parked, []
        for entry in parked:
            self._fail_task(entry, "pool closed while the fleet was down")
        byed: list[_RemoteWorker] = []
        for worker in workers:
            if worker.alive:
                with contextlib.suppress(OSError, ValueError):
                    worker.send({"type": "bye"})
                    byed.append(worker)
        # a live worker answers ``bye`` with one final telemetry sample
        # and closes its end; keep the sockets readable briefly so the
        # reader threads deliver that tail before the hard drop (a hung
        # worker just spends the shared deadline, then is dropped)
        deadline = time.monotonic() + 1.0
        for worker in byed:
            if worker.reader is not None:
                worker.reader.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
        for worker in workers:
            worker.drop()
        if self._local_thread is not None:
            self._local_queue.put(None)
            self._local_thread.join(timeout=10)
        leaked: list[str] = []
        for worker in workers:
            if worker.reader is not None:
                worker.reader.join(timeout=5)
                if worker.reader.is_alive():
                    leaked.append(worker.reader.name)
        if self._heartbeat is not None:
            self._heartbeat.join(timeout=self.heartbeat_s + 5)
            if self._heartbeat.is_alive():
                leaked.append(self._heartbeat.name)
        if self._local_thread is not None and self._local_thread.is_alive():
            leaked.append(self._local_thread.name)
        if leaked:
            # surface the leak instead of abandoning the threads: the
            # counter makes it visible in bench records, the warning in
            # test logs and operator consoles
            self.leaked_threads.extend(leaked)
            self.perf.counter("fault.leaked_threads").inc(len(leaked))
            warnings.warn(
                f"SharedRemotePool.close: {len(leaked)} transport "
                f"thread(s) did not exit within the join timeout: "
                f"{leaked}",
                RuntimeWarning, stacklevel=2,
            )

    def _refuse(self, address: str, exc: _FingerprintMismatch) -> None:
        """Retire ``address`` for good: its worker would not reproduce
        this process's bits.  The rest of the fleet takes its chunks;
        with every address refused, the local fallback does — chunks
        parked for a rejoin included."""
        self.perf.counter("remote.fingerprint_mismatch").inc()
        with self._lock:
            if address in self.addresses:
                self.addresses.remove(address)
            self._redial.pop(address, None)
            self.refused[address] = str(exc)
            fleet_gone = not self.addresses
        warnings.warn(f"SharedRemotePool: {exc}", RuntimeWarning,
                      stacklevel=3)
        if fleet_gone:
            self._flush_parked()

    def _admit(self, worker: _RemoteWorker) -> None:
        """Install a re-dialed worker: register the jobs added (and
        release those dropped) since it connected, replace the dead
        record for its address, release parked chunks, rebalance load."""
        while True:
            with self._lock:
                added = [(job, wire) for job, wire in self.wires.items()
                         if job not in worker.jobs]
                dropped = worker.jobs.difference(self.wires)
                if not added and not dropped:
                    self._workers = [
                        w for w in self._workers
                        if w.alive or w.address != worker.address
                    ]
                    self._workers.append(worker)
                    self._redial.pop(worker.address, None)
                    break
            try:
                for job, wire in added:
                    worker.send(job_message(job, wire))
                    worker.jobs.add(job)
                for job in dropped:
                    worker.send(release_message(job))
                    worker.jobs.discard(job)
            except (OSError, ValueError):
                worker.drop()
                return
        self.perf.counter("fault.rejoins").inc()
        self._flush_parked()
        self._rebalance(worker)

    # -- connection management -------------------------------------------
    def _connect(self, address: str) -> _RemoteWorker:
        host, port = parse_address(address)
        worker = _RemoteWorker(
            address, sent_counter=self.perf.counter("transport.bytes_sent")
        )
        try:
            sock = socket.create_connection(
                (host, port), timeout=HANDSHAKE_TIMEOUT_S
            )
        except OSError as exc:
            raise ConnectionError(
                f"cannot reach worker {address}: {exc}"
            ) from exc
        _no_delay(sock)
        worker.sock = sock
        # one buffered reader for the connection's whole life: the
        # handshake reply and every later frame come off the same
        # buffer, so no read-ahead byte can be stranded
        rfile = sock.makefile("rb")
        fingerprint = numerics_fingerprint()
        try:
            worker.send(hello_message(self.token, fingerprint))
            reply = read_frame(rfile)
        except (OSError, ValueError) as exc:
            worker.drop()
            raise ConnectionError(
                f"handshake with worker {address} failed: {exc}"
            ) from exc
        if reply is None or reply.get("type") != "welcome":
            detail = (reply or {}).get("error", "connection closed")
            worker.drop()
            error = (
                _FingerprintMismatch
                if (reply or {}).get("reason") == FINGERPRINT_MISMATCH
                else ConnectionError
            )
            raise error(f"worker {address} refused the handshake: {detail}")
        if reply.get("protocol") != PROTOCOL_VERSION:
            worker.drop()
            raise ConnectionError(
                f"worker {address} speaks protocol "
                f"{reply.get('protocol')!r}, this client speaks "
                f"{PROTOCOL_VERSION}; upgrade the older build"
            )
        if reply.get("fingerprint") != fingerprint:
            worker.drop()
            raise _FingerprintMismatch(
                f"worker {address} has numerics fingerprint "
                f"{reply.get('fingerprint')!r}, this client "
                f"{fingerprint!r}"
            )
        sock.settimeout(None)
        worker.capacity = max(1, int(reply.get("capacity", 1)))
        worker.alive = True
        worker.last_recv = time.monotonic()
        # the full job table rides every connection so any worker can
        # pick up any job's chunks (that is what makes requeue possible)
        with self._lock:
            wires = list(self.wires.items())
        for job, payload in wires:
            worker.send(job_message(job, payload))
            worker.jobs.add(job)
        worker.reader = threading.Thread(
            target=self._read_loop, args=(worker, rfile), daemon=True,
            name=f"repro-remote-read-{address}",
        )
        worker.reader.start()
        return worker

    def _read_loop(self, worker: _RemoteWorker, rfile) -> None:
        try:
            while worker.alive:
                message = read_frame(rfile)
                if message is None:
                    break
                worker.last_recv = time.monotonic()
                kind = message.get("type")
                if kind == "result":
                    self._handle_result(worker, message)
                elif kind == "blob_get":
                    self._handle_blob_get(worker, message)
                elif kind == "draining":
                    # the worker is retiring (SIGTERM): it will finish
                    # what it holds, but gets nothing new
                    worker.accepting = False
                    self.perf.counter("fault.drains").inc()
                elif kind == "metrics":
                    self._handle_metrics(worker, message)
                elif kind == "pong":
                    t = message.get("t")
                    if isinstance(t, (int, float)):
                        worker.rtt_ms = max(
                            0.0, time.monotonic() * 1000 - t
                        )
                elif kind == "error":
                    break  # worker declared the connection unusable
                # anything else: the timestamp update above is all the
                # liveness machinery needs
        except FrameCorruptionError:
            # a corrupt frame demotes the worker cleanly: count it,
            # drop the connection, requeue its chunks elsewhere
            self.perf.counter("fault.checksum_rejects").inc()
        except (OSError, ValueError):
            pass
        self._worker_died(worker)

    def _heartbeat_loop(self) -> None:
        while not self._closed:
            if self._closing.wait(self.heartbeat_s):
                return
            if self._closed:
                return
            now = time.monotonic()
            with self._lock:
                workers = [w for w in self._workers if w.alive]
            for worker in workers:
                if now - worker.last_recv > self.liveness_timeout:
                    self._worker_died(worker)
                    continue
                try:
                    worker.send({"type": "ping", "t": int(now * 1000)})
                except (OSError, ValueError):
                    self._worker_died(worker)
            self._check_deadlines(now)
            self._redial_pass(now)
            self._check_parked(now)

    # -- elastic recovery passes (heartbeat thread) -----------------------
    def _check_deadlines(self, now: float) -> None:
        """Requeue chunks in flight longer than the policy deadline —
        a stalled worker should not hold a chunk hostage for the whole
        liveness window.  The late duplicate, if it ever arrives, is
        dropped by task-id dedupe."""
        deadline = self.retry.deadline_s
        if deadline is None:
            return
        stale: list[_Task] = []
        with self._lock:
            for worker in self._workers:
                if not worker.alive:
                    continue
                for task in list(worker.pending):
                    entry = self._pending.get(task)
                    if entry is None:
                        worker.pending.discard(task)
                        continue
                    if entry.sent_at is not None \
                            and now - entry.sent_at > deadline:
                        worker.pending.discard(task)
                        stale.append(entry)
        for entry in stale:
            self.perf.counter("fault.deadline_requeues").inc()
            self._requeue(entry)

    def _redial_pass(self, now: float) -> None:
        """Re-dial every configured address with no live connection,
        each on its own deterministic backoff schedule — a restarted
        worker rejoins the fleet mid-search."""
        if self._closed:
            return
        due: list[tuple[str, list]] = []
        with self._lock:
            for address in self.addresses:
                if any(
                    w.alive for w in self._workers if w.address == address
                ):
                    continue
                state = self._redial.setdefault(address, [0, 0.0])
                if now >= state[1]:
                    due.append((address, state))
        for address, state in due:
            state[0] += 1
            self.perf.counter("fault.redials").inc()
            try:
                worker = self._connect(address)
            except _FingerprintMismatch as exc:
                self._refuse(address, exc)
                continue
            except (ConnectionError, OSError, ValueError):
                state[1] = time.monotonic() + self.retry.backoff(
                    state[0], key=address
                )
                continue
            self._admit(worker)

    def _check_parked(self, now: float) -> None:
        """Release parked chunks once a worker is back, or fail them
        once the fleet has been down longer than ``fleet_wait_s``."""
        with self._lock:
            if not self._parked:
                return
            down_since = self._fleet_down_since
            has_live = any(
                w.alive and w.accepting for w in self._workers
            )
        if has_live:
            self._flush_parked()
        elif down_since is not None \
                and now - down_since > self.retry.fleet_wait_s:
            with self._lock:
                parked, self._parked = self._parked, []
                self._fleet_down_since = None
            for entry in parked:
                self._fail_task(
                    entry,
                    f"fleet down for more than "
                    f"{self.retry.fleet_wait_s}s with no rejoin",
                )

    def _flush_parked(self) -> None:
        with self._lock:
            parked, self._parked = self._parked, []
            self._fleet_down_since = None
        for entry in parked:
            self._dispatch(entry)

    def _rebalance(self, worker: _RemoteWorker) -> None:
        """Move excess in-flight chunks from loaded workers onto a
        joiner.  Safe by construction: the donor may still deliver a
        moved chunk, and task-id dedupe keeps whichever copy lands
        first (both are bitwise-identical)."""
        moves: list[_Task] = []
        with self._lock:
            others = [
                w for w in self._workers
                if w.alive and w.accepting and w is not worker
            ]
            if not others:
                return
            total = len(worker.pending) + sum(
                len(w.pending) for w in others
            )
            target = -(-total // (len(others) + 1))  # ceil
            for other in sorted(others, key=lambda w: -len(w.pending)):
                while (
                    len(other.pending) > target
                    and len(worker.pending) < target
                ):
                    task = max(other.pending)
                    other.pending.discard(task)
                    entry = self._pending.get(task)
                    if entry is None:
                        continue
                    worker.pending.add(task)
                    moves.append(entry)
        for entry in moves:
            try:
                worker.send(task_message(
                    entry.task, entry.job, entry.seq, entry.chunk,
                    entry.solutions,
                ))
                entry.sent_at = time.monotonic()
            except (OSError, ValueError):
                # every move (sent or not) is in worker.pending, so the
                # death sweep requeues them all — nothing is stranded
                self._worker_died(worker)
                return
        if moves:
            self.perf.counter("fault.rebalanced").inc(len(moves))

    # -- telemetry forwarding ---------------------------------------------
    def _handle_metrics(self, worker: _RemoteWorker, message: dict) -> None:
        """Forward one worker telemetry sample upstream: enrich it with
        what only this side knows (in-flight chunk count, heartbeat
        round trip) and publish to the process-ambient
        :class:`~repro.obs.MetricsHub`, where the daemon's fleet
        merger — or any other subscriber — picks it up.  Passive: a bad
        sample is dropped, never raised into the reader loop."""
        try:
            sample = {
                "source": str(message.get("source")
                              or f"worker:{worker.address}"),
                "seq": int(message.get("seq") or 0),
                "t": float(message.get("t") or 0.0),
                "delta": message.get("delta") or {},
                "gauges": dict(message.get("gauges") or {}),
            }
            sample["gauges"]["pending"] = len(worker.pending)
            if worker.rtt_ms is not None:
                sample["gauges"]["heartbeat_ms"] = round(worker.rtt_ms, 3)
        except (TypeError, ValueError):
            return
        get_hub().publish(sample)

    def membership(self) -> list[dict]:
        """Per-worker fleet facts for status views (advisory only)."""
        with self._lock:
            return [
                {
                    "address": w.address,
                    "alive": w.alive,
                    "accepting": w.accepting,
                    "pending": len(w.pending),
                    "heartbeat_ms": w.rtt_ms,
                }
                for w in self._workers
            ]

    # -- blob transport --------------------------------------------------
    def _handle_blob_get(self, worker: _RemoteWorker, message: dict) -> None:
        """Answer a worker's blob diff: push every missing blob inline
        (``blob_put``) and credit the acked-cached ones — base64 bytes a
        warm worker cache kept off the wire — to ``bytes_saved``."""
        from ..spec.serde import encode_array, inline_nbytes

        for digest in message.get("digests", ()):
            if self._blobs is None or digest not in self._blob_refs:
                continue  # unknown ref: the worker's fetch fails loudly
            try:
                array = self._blobs.get(digest)
            except KeyError:
                continue
            worker.send(blob_put_message(digest, encode_array(array)))
        saved = sum(
            inline_nbytes(self._blob_refs[digest])
            for digest in message.get("cached", ())
            if digest in self._blob_refs
        )
        if saved:
            self.perf.counter("transport.bytes_saved").inc(saved)

    # -- dispatch / results ----------------------------------------------
    def _pick_worker(self) -> _RemoteWorker | None:
        with self._lock:
            live = [
                w for w in self._workers if w.alive and w.accepting
            ]
            if not live:
                return None
            return min(live, key=lambda w: len(w.pending) / w.capacity)

    def _dispatch(self, entry: _Task) -> None:
        """Send one tracked task to some live worker, failing over until
        it is accepted or no workers remain."""
        while True:
            worker = self._pick_worker()
            if worker is None:
                self._handle_no_workers(entry)
                return
            with self._lock:
                # re-check under the lock: _worker_died may have swept
                # this worker's pending set since _pick_worker — adding
                # to it now would strand the task (never requeued, so
                # the scheduler would wait on its ChunkResult forever)
                if not worker.alive:
                    continue
                worker.pending.add(entry.task)
            try:
                worker.send(task_message(
                    entry.task, entry.job, entry.seq, entry.chunk,
                    entry.solutions,
                ))
                entry.sent_at = time.monotonic()
                return
            except (OSError, ValueError):
                with self._lock:
                    worker.pending.discard(entry.task)
                self._worker_died(worker)

    def _handle_no_workers(self, entry: _Task) -> None:
        """Dispatch found an empty fleet: degrade per policy — run the
        chunk locally, park it for a rejoin, or fail it fast."""
        if self._closed:
            self._fail_task(entry, "pool closed")
            return
        with self._lock:
            all_refused = bool(self.refused) and not self.addresses
        if self.on_fleet_death == "local" or all_refused:
            self.perf.counter("fault.fallbacks").inc()
            self._run_local(entry)
            return
        if self.retry.fleet_wait_s > 0:
            with self._lock:
                if self._fleet_down_since is None:
                    self._fleet_down_since = time.monotonic()
                self._parked.append(entry)
            self.perf.counter("fault.parked").inc()
            return
        self._fail_task(entry, "no live remote workers remain")

    def _requeue(self, entry: _Task) -> None:
        """Charge one failure against a chunk's retry budget, then
        either quarantine it (poison chunk → local evaluation) or
        re-dispatch on the policy's deterministic backoff."""
        entry.attempts += 1
        self.perf.counter("fault.retries").inc()
        if self.retry.exhausted(entry.attempts):
            # this chunk has now taken down max_attempts workers in a
            # row: quarantine it — evaluate locally, flagged by the
            # counter — rather than let it cascade through the fleet
            self.perf.counter("fault.quarantines").inc()
            self._run_local(entry)
            return
        delay = self.retry.backoff(entry.attempts, key=f"task{entry.task}")
        if delay > 0.001 and not self._closed:
            timer = threading.Timer(delay, self._dispatch, args=(entry,))
            timer.daemon = True
            timer.start()
        else:
            self._dispatch(entry)

    def _handle_result(self, worker: _RemoteWorker, message: dict) -> None:
        with self._lock:
            task = message.get("task")
            # always unburden the delivering worker — a duplicate
            # delivery after a requeue must not leave a stale id
            # inflating its load forever
            worker.pending.discard(task)
            entry = self._pending.pop(task, None)
        if entry is None:
            # duplicate delivery after a requeue/rebalance: drop (both
            # copies are bitwise-identical, the first one won)
            self.perf.counter("fault.duplicate_results").inc()
            return
        self._results.put(ChunkResult(
            job=message["job"],
            seq=message["seq"],
            chunk=message["chunk"],
            fits=message.get("fits"),
            perf_delta=message.get("perf_delta"),
            elapsed=float(message.get("elapsed", 0.0)),
            error=message.get("error"),
        ))

    def _fail_task(self, entry: _Task, reason: str) -> None:
        with self._lock:
            still_pending = self._pending.pop(entry.task, None) is not None
        if still_pending:
            self._results.put(ChunkResult(
                entry.job, entry.seq, entry.chunk, None, None, 0.0,
                error=f"remote pool: {reason}",
            ))

    def _worker_died(self, worker: _RemoteWorker) -> None:
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            orphans = [
                self._pending[task]
                for task in sorted(worker.pending)
                if task in self._pending
            ]
            worker.pending.clear()
            if not self._closed and worker.address in self.addresses:
                # schedule the first redial of this address: a worker
                # restarted behind the same host:port rejoins mid-search
                state = self._redial.setdefault(worker.address, [0, 0.0])
                state[1] = time.monotonic() + self.retry.backoff(
                    state[0] + 1, key=worker.address
                )
        worker.drop()
        if self._closed:
            return
        if orphans:
            self.perf.counter("fault.requeues").inc(len(orphans))
        for entry in orphans:
            self._requeue(entry)

    # -- local fallback evaluator ----------------------------------------
    def _run_local(self, entry: _Task) -> None:
        """Queue a chunk for the in-process fallback evaluator (lazily
        started): quarantined poison chunks and on_fleet_death="local"
        degradation both land here.  Evaluation reuses the exact
        worker-side replica machinery, so the result is bitwise what a
        remote worker would have produced."""
        with self._local_lock:
            if self._local_thread is None:
                self._local_thread = threading.Thread(
                    target=self._local_loop, daemon=True,
                    name="repro-remote-local-fallback",
                )
                self._local_thread.start()
        self._local_queue.put(entry)

    def _local_loop(self) -> None:
        while True:
            entry = self._local_queue.get()
            if entry is None:
                return
            # drop a replica built while its job was being released
            self._fallback.keep(self.wires)
            result = ChunkResult(
                entry.job, entry.seq, entry.chunk,
                *self._fallback.run(entry.job, entry.solutions),
            )
            with self._lock:
                delivered = self._pending.pop(entry.task, None)
            if delivered is not None:
                self._results.put(result)
            else:
                # a remote worker beat the fallback to it (identical
                # payload): count the duplicate, deliver nothing
                self.perf.counter("fault.duplicate_results").inc()


# -- single-search adapter ------------------------------------------------
class RemoteExecutor:
    """Remote backend for single-search executors
    (:func:`repro.parallel.make_executor`).

    Adapts one :class:`~repro.parallel.EvaluatorSpec` onto a
    :class:`SharedRemotePool` with a single job: ``evaluate_batch``
    submits one chunk per candidate (matching the process backend's
    ``chunksize=1`` dispatch), reassembles results by chunk tag, and
    merges worker perf deltas in submission order — bitwise-identical
    to the serial backend.
    """

    _JOB = "job0"

    def __init__(self, spec: EvaluatorSpec, config: ExecutorConfig,
                 perf) -> None:
        self.perf = perf
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        # encode against the process-global blob store: a spec
        # re-submitted to a warm fleet dedupes its tensors (blob hits
        # client-side, cached acks worker-side)
        blobs = get_blob_store()
        self._pool = SharedRemotePool(
            encode_pool_wires({self._JOB: spec}, blobs=blobs),
            config.addresses,
            self._results,
            token=config.token,
            blobs=blobs,
            perf=perf,
            retry=config.retry,
            on_fleet_death=config.on_fleet_death,
        ).start()
        self._seq = itertools.count()

    @property
    def workers(self) -> int:
        return self._pool.workers

    def evaluate_batch(self, solutions) -> list[float]:
        solutions = list(solutions)
        seq = next(self._seq)
        for idx, solution in enumerate(solutions):
            self._pool.submit(self._JOB, seq, idx, [solution])
        chunks: dict[int, ChunkResult] = {}
        while len(chunks) < len(solutions):
            result = self._results.get()
            if result.seq != seq:
                continue  # stale result of a batch that already raised
            chunks[result.chunk] = result
        fits = []
        for idx in range(len(solutions)):
            result = chunks[idx]
            if result.error is not None:
                raise RuntimeError(
                    f"remote evaluation failed:\n{result.error}"
                )
            self.perf.merge_snapshot(result.perf_delta)
            fits.extend(result.fits)
        return fits

    def close(self) -> None:
        self._pool.close()


# the socket transport is the third shared-pool backend; the serial and
# process factories live in repro.serve.pool
def _make_shared_remote_pool(specs, config, results, search_specs):
    blobs = get_blob_store()
    return SharedRemotePool(
        encode_pool_wires(specs, search_specs, blobs=blobs),
        config.addresses,
        results,
        token=config.token,
        blobs=blobs,
        retry=config.retry,
        on_fleet_death=config.on_fleet_death,
    )


spec_registry.register("shared_pool", "remote", _make_shared_remote_pool)
