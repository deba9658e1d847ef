"""Shared multi-job executor pools for the search scheduler.

The :mod:`repro.parallel` executors bind one pool to one
:class:`~repro.parallel.EvaluatorSpec`: all tasks score candidates for
that one search.  A :class:`repro.serve.SearchScheduler` instead keeps
*many* searches in flight, so its pools multiplex: every task is tagged
with a job id, and each worker lazily builds (and keeps) one replica
*per job* it has seen — the same worker scores candidates for a ResNet
search and a ViT search back to back, each against that job's own
model copy, caches, and private perf registry.

**The WorkerPool protocol.**  Every pool implements the same small,
transport-agnostic API (:class:`WorkerPool`): ``submit(job, seq, chunk,
solutions)`` hands one tagged chunk to the pool, results arrive on the
caller-supplied queue as :class:`ChunkResult` messages, and
``start``/``close``/``workers``/``healthy`` manage the pool's
lifecycle, and ``add``/``release`` let a live pool take a new job and
drop a finished one, so one pool serves a whole busy period of the
search daemon.  The scheduler codes against this protocol only, so a
backend living across a socket is interchangeable with one living in a
thread.  Backends register in the ``shared_pool`` component registry
(:mod:`repro.spec.registry`) under the same names
:class:`~repro.parallel.ExecutorConfig` validates against:

* ``serial`` — :class:`SharedSerialPool`: one in-process replica per
  job; submit evaluates synchronously.  The zero-overhead baseline,
  and what :func:`repro.quant.lpq_quantize` (a one-job scheduler) runs
  by default: a replica scores the job's model instance itself unless
  it cannot own it (see :class:`SharedSerialPool`).
* ``process`` — :class:`SharedProcessPool`: a
  :class:`multiprocessing.pool.Pool` whose workers receive the full
  ``job → payload`` map at init (a job added later rides with its
  tasks) and build replicas lazily per job on first task.  A payload
  is the job's plain-JSON wire dict
  (:func:`repro.spec.wire.encode_job`), or the pickled
  :class:`~repro.parallel.EvaluatorSpec` of a job the wire codec
  rejects.  Only ``(job, candidates)`` and ``(fitness, perf-delta)``
  cross per task.
* ``remote`` — :class:`repro.serve.remote.SharedRemotePool`: the same
  wire payloads framed over TCP sockets to standalone workers
  (``scripts/run_worker.py``), with token handshake, heartbeat
  liveness, and dead-worker requeue.

All pools are *asynchronous at the submit boundary*: results arrive on
a caller-supplied queue as :class:`ChunkResult` messages tagged with
``(job, seq, chunk)``, so the scheduler reassembles each batch in
submission order no matter which worker finished first — completion
order never reaches the search trajectory.  A task that raises reports
an ``error`` string instead of poisoning the pool: the worker stays
alive and keeps serving other jobs' tasks.
"""

from __future__ import annotations

import abc
import multiprocessing
import queue
from dataclasses import dataclass

from ..parallel import EvaluatorSpec, ExecutorConfig
from ..parallel.executor import (
    _evaluate_shared_chunk,
    _init_shared_worker,
    _ReplicaTable,
    _worker_payload,
)
from ..spec import registry as spec_registry

__all__ = [
    "ChunkResult",
    "WorkerPool",
    "SharedSerialPool",
    "SharedProcessPool",
    "encode_pool_wires",
    "make_shared_pool",
]


@dataclass
class ChunkResult:
    """One evaluated chunk, delivered on the scheduler's result queue.

    ``fits`` holds the fitness values in the chunk's submission order
    (``None`` on failure, with ``error`` carrying the worker traceback).
    ``perf_delta`` is the worker replica's perf-registry delta for
    exactly this chunk (see :func:`repro.perf.diff_snapshots`) and
    ``elapsed`` its wall-clock seconds — the scheduler's adaptive
    chunking feeds on the latter.
    """

    job: str
    seq: int
    chunk: int
    fits: list[float] | None
    perf_delta: dict | None
    elapsed: float
    error: str | None = None


class WorkerPool(abc.ABC):
    """The transport-agnostic multi-job executor protocol.

    A pool is constructed around its job table and a caller-supplied
    result queue, brought up with :meth:`start`, fed tagged chunks
    through :meth:`submit`, and torn down with :meth:`close`.  Exactly
    one :class:`ChunkResult` must eventually reach the result queue per
    submitted chunk — on success, worker failure, or transport failure
    alike — which is the property that lets the scheduler count
    outstanding chunks instead of tracking workers.

    ``workers`` is the pool's current parallelism (the scheduler's
    chunker keeps at least that many chunks in flight); ``healthy()``
    reports whether the pool can still make progress (an in-process
    pool always can; a remote pool with every worker dead cannot).
    """

    #: current worker parallelism (dynamic for remote pools)
    workers: int = 1

    def start(self) -> "WorkerPool":
        """Bring the pool up (connect transports, spawn workers).

        In-process pools are live after construction, so the default is
        a no-op; :func:`make_shared_pool` always calls it, and callers
        constructing pools directly should too.
        """
        return self

    @abc.abstractmethod
    def submit(self, job: str, seq: int, chunk: int, solutions) -> None:
        """Hand one tagged candidate chunk to the pool (non-blocking for
        asynchronous backends)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Tear the pool down; idempotent."""

    def healthy(self) -> bool:
        """Whether the pool can still evaluate submitted chunks."""
        return True

    def add(self, job: str, spec: EvaluatorSpec, search=None) -> None:
        """Take one more job on the live pool; its chunks may be
        submitted once this returns.  ``search`` is the
        :class:`~repro.spec.SearchSpec` the job was submitted as, if
        any (it selects the compact wire payload).  Raises
        ``ValueError`` when the job cannot cross the pool's wire."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot take a job after start"
        )

    def release(self, job: str) -> None:
        """``job`` is finished: the workers give up its replica (a
        socket or process worker keeps it idle, within a fixed bound,
        for a later job with the same evaluator), so a pool's memory
        follows the jobs in flight, not every job it has served.
        Unknown jobs are ignored.  No-op by default."""

    def membership(self) -> list[dict]:
        """Per-worker liveness/queue facts for fleet status views.

        In-process pools have no per-worker identity worth reporting, so
        the default is empty; the remote pool overrides this with one
        entry per dialed address (alive, accepting, pending chunks,
        heartbeat latency).  Advisory only — never used for scheduling.
        """
        return []

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


class SharedSerialPool(WorkerPool):
    """In-process multi-job pool; ``submit`` evaluates synchronously and
    enqueues the result before returning.

    A job's replica scores its model instance in place, with no copy,
    unless another job in the pool's table holds the same instance or
    the job loads a state dict into it; then the replica deep-copies
    the model first.
    """

    def __init__(
        self, specs: dict[str, EvaluatorSpec], results: queue.SimpleQueue
    ) -> None:
        self.workers = 1
        self._results = results
        self._table = _ReplicaTable(dict(specs))

    def submit(self, job: str, seq: int, chunk: int, solutions) -> None:
        self._results.put(
            ChunkResult(job, seq, chunk, *self._table.run(job, solutions))
        )

    def add(self, job: str, spec: EvaluatorSpec, search=None) -> None:
        self._table.add(job, spec)

    def release(self, job: str) -> None:
        self._table.release(job)

    def close(self) -> None:
        pass


class SharedProcessPool(WorkerPool):
    """Process-pool multi-job evaluation; results arrive via the pool's
    async callbacks, which enqueue :class:`ChunkResult` messages.

    ``wires`` maps job names to the plain-JSON payloads of
    :func:`repro.spec.wire.encode_job` — or, for a job the wire codec
    rejects, its :class:`~repro.parallel.EvaluatorSpec`, which the pool
    pickles; they are the *only* job state handed to workers
    (``self.wires`` is kept for inspection — the protocol tests
    round-trip it through ``json.dumps``/``loads``).

    ``blobs`` (the :class:`~repro.spec.blob.BlobStore` the wires were
    encoded against) switches on zero-copy transport: the store is
    published as a shared-memory transport table that every worker
    attaches at init, so content-addressed ``{"blob": ...}`` refs in
    the wires resolve against the exporter's physical pages instead of
    per-worker base64 copies.  ``transport.bytes_sent`` /
    ``transport.bytes_saved`` record the shipped and displaced volume.

    The pool cannot address one worker, so every task carries the
    names of the jobs the pool still holds, and a worker releases any
    other job before it evaluates.  For the
    same reason a job added to the live pool (:meth:`add`) travels with
    each of its tasks: its wire payload plus the transport table of the
    blobs it references, which a worker registers on first sight.
    """

    def __init__(
        self,
        wires: dict[str, dict],
        workers: int,
        results: queue.SimpleQueue,
        start_method: str | None = None,
        blobs=None,
    ) -> None:
        self.workers = workers
        self.wires = dict(wires)
        self._results = results
        self._blobs = blobs
        #: job → (wire, blob table) of the jobs added after start
        self._added: dict[str, tuple] = {}
        blob_table = None
        if blobs is not None:
            from ..perf import get_perf
            from ..spec.blob import account_transport, blob_transport_table

            blob_table = blob_transport_table(blobs)
            account_transport(
                get_perf(),
                {k: w for k, w in self.wires.items() if isinstance(w, dict)},
                blob_table,
                workers,
            )
        ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._pool = ctx.Pool(
            processes=workers,
            initializer=_init_shared_worker,
            initargs=(self.wires, blob_table),
        )

    def submit(self, job: str, seq: int, chunk: int, solutions) -> None:
        def on_done(payload, job=job, seq=seq, chunk=chunk):
            self._results.put(ChunkResult(job, seq, chunk, *payload))

        def on_error(exc, job=job, seq=seq, chunk=chunk):
            # belt and braces: task exceptions are already caught inside
            # the worker; this catches pickling failures and the like
            self._results.put(
                ChunkResult(job, seq, chunk, None, None, 0.0, error=repr(exc))
            )

        self._pool.apply_async(
            _evaluate_shared_chunk,
            (job, solutions, tuple(self.wires), self._added.get(job)),
            callback=on_done,
            error_callback=on_error,
        )

    def add(self, job: str, spec: EvaluatorSpec, search=None) -> None:
        wire = _worker_payload(spec, search, blobs=self._blobs)
        table = None
        if self._blobs is not None:
            from ..spec.blob import blob_transport_table
            from ..spec.wire import collect_blob_refs

            refs = collect_blob_refs(wire)
            if refs:
                table = blob_transport_table(self._blobs, digests=refs)
        self.wires[job] = wire
        self._added[job] = (wire, table)

    def release(self, job: str) -> None:
        self.wires.pop(job, None)
        self._added.pop(job, None)

    def close(self) -> None:
        self._pool.close()
        self._pool.join()


def encode_pool_wires(
    specs: dict[str, EvaluatorSpec],
    search_specs: dict | None = None,
    blobs=None,
) -> dict[str, dict]:
    """Encode every job for the JSON wire of the remote pool
    (:func:`repro.spec.wire.encode_job`).

    ``search_specs`` optionally maps job names to the declarative
    :class:`~repro.spec.SearchSpec` they were submitted as, which
    selects the compact registry-reference payload.  ``blobs`` (a
    :class:`~repro.spec.blob.BlobStore`) makes array payloads
    content-addressed refs into that store.  A job that cannot be named
    on the wire raises ``ValueError`` identifying it.
    """
    from ..spec.wire import encode_job

    search_specs = search_specs or {}
    wires = {}
    for name, spec in specs.items():
        try:
            wires[name] = encode_job(spec, search_specs.get(name),
                                     blobs=blobs)
        except ValueError as exc:
            raise ValueError(
                f"job {name!r} cannot cross the worker wire: {exc}"
            ) from exc
    return wires


def make_shared_pool(
    specs: dict[str, EvaluatorSpec],
    config: ExecutorConfig,
    results: queue.SimpleQueue,
    search_specs: dict | None = None,
) -> WorkerPool:
    """Build and start the shared pool selected by ``config`` (same
    :class:`~repro.parallel.ExecutorConfig` as single-job executors).

    The serial pool shares this process's memory and uses the live
    specs directly; the process and remote pools serialize — their
    jobs travel as plain-JSON wire payloads (the process pool pickles
    the spec of a job the wire codec rejects).  Backends dispatch through the
    ``shared_pool`` registry (:mod:`repro.spec.registry`), so a
    registered extension backend — a factory ``(specs, config, results,
    search_specs) -> WorkerPool`` — slots in next to the built-in three.
    """
    factory = spec_registry.resolve("shared_pool", config.backend)
    return factory(specs, config, results, search_specs).start()


# -- the built-in in-process backends ------------------------------------
# (the remote backend registers from repro.serve.remote, the second
# bootstrap module of the shared_pool registry family)
spec_registry.register(
    "shared_pool",
    "serial",
    lambda specs, config, results, search_specs: SharedSerialPool(
        specs, results
    ),
)
def _make_shared_process_pool(specs, config, results, search_specs):
    from ..spec.blob import get_blob_store

    # encode against the process-global store: re-submitted jobs dedupe
    # their tensors (blob hits) and reuse already-exported shm segments
    blobs = get_blob_store()
    search_specs = search_specs or {}
    return SharedProcessPool(
        {
            name: _worker_payload(spec, search_specs.get(name), blobs=blobs)
            for name, spec in specs.items()
        },
        config.resolved_workers(),
        results,
        start_method=config.start_method,
        blobs=blobs,
    )


spec_registry.register("shared_pool", "process", _make_shared_process_pool)
