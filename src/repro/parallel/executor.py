"""Executor backends for parallel population evaluation.

Three interchangeable backends score batches of candidates:

* ``serial`` — one replica in the calling thread.  Zero overhead, and
  because the replica records into the ambient perf registry and its
  caches live across batches, a serial run is bit-for-bit *and*
  counter-for-counter the incremental engine.
* ``process`` — a :class:`multiprocessing.pool.Pool` running the same
  worker body as the scheduler's shared process pool, with a one-job
  table: each worker builds its replica from the wire payload (or the
  pickled :class:`EvaluatorSpec`) on its first task.  True parallelism;
  candidates and scalar results are the only per-task traffic.
* ``remote`` — TCP workers (:mod:`repro.serve.remote`) addressed by
  ``ExecutorConfig(backend="remote", addresses=["host:port", ...])``.
  Jobs cross the socket as plain-JSON wire payloads
  (:mod:`repro.spec.wire`), so the workers may live on other hosts;
  start them with ``scripts/run_worker.py``.

All backends return results in submission order.  Worker replicas record
into private :class:`~repro.perf.PerfRegistry` instances and ship one
snapshot *delta* per result; the coordinating process merges the deltas
into the ambient registry, so counters and cache hit-rates stay truthful
after a fan-out.

No search runs on these executors (:func:`repro.quant.lpq_quantize` is
a one-job :class:`repro.serve.SearchScheduler`); the shared pools use
this module's :class:`ExecutorConfig`, payload helper, process worker
body and the replica table behind every worker body.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass

from ..perf import PerfRegistry, diff_snapshots
from ..spec import registry as spec_registry
from ._blas import one_blas_thread
from .evaluator import EvaluatorSpec

__all__ = [
    "BACKENDS",
    "ExecutorConfig",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "parse_address",
    "parse_address_list",
]

#: the built-in backends; the executor registry
#: (``repro.spec.registry``) is the source of truth for validation and
#: dispatch, so registered extension backends are accepted everywhere
#: an ``ExecutorConfig`` is
BACKENDS = ("serial", "process", "remote")


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; raises ``ValueError`` with
    the offending string on anything else."""
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address {address!r} must look like 'host:port'"
        )
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(
            f"worker address {address!r} has a non-integer port"
        ) from None
    if not 0 < port_num < 65536:
        raise ValueError(f"worker address {address!r} port out of range")
    return host, port_num


def parse_address_list(text: str) -> tuple[str, ...]:
    """Comma-separated ``host:port`` list → validated address tuple
    (the shape every CLI ``--addresses`` flag takes)."""
    addresses = tuple(a.strip() for a in text.split(",") if a.strip())
    if not addresses:
        raise ValueError(f"no worker addresses in {text!r}")
    for address in addresses:
        parse_address(address)
    return addresses


@dataclass(frozen=True)
class ExecutorConfig:
    """Backend selection for population evaluation.

    ``workers=None`` uses every available CPU (min 1).  ``start_method``
    overrides the multiprocessing start method for the process backend
    (``None`` = platform default; "spawn" exercises the fully-pickled
    path that a distributed deployment would use).  Every process and
    remote worker runs its BLAS on one thread, since parallelism comes
    from the worker count; the calling process keeps its own.

    The ``remote`` backend instead takes ``addresses`` — ``host:port``
    strings of running ``scripts/run_worker.py`` workers — plus an
    optional shared-secret ``token`` the workers were started with;
    ``workers`` is implied by the fleet size.  Two further remote-only
    knobs shape failure handling: ``retry`` (a
    :class:`repro.serve.resilience.RetryPolicy` or its dict form —
    requeue budgets, deterministic backoff, deadlines, heartbeat
    overrides) and ``on_fleet_death`` (``"fail"`` keeps the fail-fast
    default; ``"local"`` degrades gracefully by evaluating remaining
    chunks on an in-process fallback evaluator, bitwise-identically).

    The same config is :func:`repro.quant.lpq_quantize`'s ``executor``
    knob and selects the shared pool of a
    :class:`repro.serve.SearchScheduler`; whatever the backend and
    worker count, search trajectories are bitwise-identical — the knob
    only changes wall-clock.

    >>> from repro.parallel import ExecutorConfig
    >>> ExecutorConfig().backend  # serial: in-process, zero overhead
    'serial'
    >>> ExecutorConfig("process", workers=2).resolved_workers()
    2
    >>> ExecutorConfig().resolved_workers() >= 1  # None = all CPUs
    True
    >>> remote = ExecutorConfig("remote",
    ...                         addresses=["127.0.0.1:7301", "127.0.0.1:7302"])
    >>> remote.addresses, remote.resolved_workers()
    (('127.0.0.1:7301', '127.0.0.1:7302'), 2)
    >>> ExecutorConfig("remote")
    Traceback (most recent call last):
        ...
    ValueError: remote backend requires addresses=['host:port', ...] of running workers (scripts/run_worker.py)
    >>> ExecutorConfig("gpu")
    Traceback (most recent call last):
        ...
    ValueError: unknown backend 'gpu'; choose from ('serial', 'process', 'remote')
    >>> cfg = ExecutorConfig("remote", addresses=["127.0.0.1:7301"],
    ...                      retry={"max_attempts": 2}, on_fleet_death="local")
    >>> cfg.retry.max_attempts, cfg.on_fleet_death
    (2, 'local')
    >>> ExecutorConfig.from_dict(cfg.to_dict()) == cfg  # spec-JSON safe
    True
    """

    backend: str = "serial"
    workers: int | None = None
    start_method: str | None = None
    addresses: tuple[str, ...] | None = None
    token: str | None = None
    retry: object | None = None
    on_fleet_death: str = "fail"

    def __post_init__(self) -> None:
        backends = spec_registry.registry("executor")
        if self.backend not in backends:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from "
                f"{backends.names()}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be positive")
        if self.addresses is not None:
            # normalize to a tuple so configs built with a list still
            # hash/compare/serialize like their from_dict twins
            object.__setattr__(self, "addresses", tuple(self.addresses))
            for address in self.addresses:
                parse_address(address)
        if self.retry is not None:
            # deferred import: repro.serve builds on this module
            from ..serve.resilience import RetryPolicy

            if isinstance(self.retry, dict):
                # dict form (spec JSON) normalizes to the policy object
                object.__setattr__(
                    self, "retry", RetryPolicy.from_dict(self.retry)
                )
            elif not isinstance(self.retry, RetryPolicy):
                raise ValueError(
                    f"retry must be a RetryPolicy or its dict form, got "
                    f"{type(self.retry).__name__}"
                )
        if self.on_fleet_death not in ("fail", "local"):
            raise ValueError(
                f"on_fleet_death must be 'fail' or 'local', got "
                f"{self.on_fleet_death!r}"
            )
        if self.backend == "remote":
            if not self.addresses:
                raise ValueError(
                    "remote backend requires addresses=['host:port', ...] "
                    "of running workers (scripts/run_worker.py)"
                )
        elif self.addresses is not None or self.token is not None:
            raise ValueError(
                f"addresses/token only apply to the remote backend, not "
                f"{self.backend!r}"
            )
        elif self.retry is not None or self.on_fleet_death != "fail":
            raise ValueError(
                f"retry/on_fleet_death only apply to the remote backend, "
                f"not {self.backend!r}"
            )

    def resolved_workers(self) -> int:
        if self.backend == "remote":
            return len(self.addresses)
        if self.workers is not None:
            return self.workers
        return max(os.cpu_count() or 1, 1)

    def to_dict(self) -> dict:
        """Plain-JSON dict form (used by :class:`repro.spec.SearchSpec`)."""
        from ..spec.serde import config_to_dict

        out = config_to_dict(self)
        if self.retry is not None:
            # nested policy dataclass → its own dict form (the one
            # nested config the flat serde helpers don't descend into)
            out["retry"] = self.retry.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutorConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        from ..spec.serde import config_from_dict

        return config_from_dict(cls, data)


class SerialExecutor:
    """In-process evaluation; the replica records into the ambient
    registry directly, so no snapshot merging is needed."""

    def __init__(self, spec: EvaluatorSpec, perf) -> None:
        # the replica may use a passed-in model instance as-is: nothing
        # else evaluates concurrently in this backend
        self.replica = spec.build(perf=perf, copy_model=False)
        self.workers = 1

    def evaluate_batch(self, solutions) -> list[float]:
        return self.replica.evaluate_many(solutions)

    def close(self) -> None:
        pass


# -- worker bodies ------------------------------------------------------
# Every body that scores chunks -- the serial pool, the process workers
# below, the socket worker and the remote pool's local fallback -- keeps
# its jobs in one _ReplicaTable.  A payload is what _worker_payload
# returns: a plain-JSON wire payload (repro.spec.wire), the pickled
# EvaluatorSpec of a job the wire codec rejects, or (serial pool) the
# live spec.  A job whose replica fails to decode or build fails *its
# own* chunks (the error travels back inside the result tuple); the
# worker survives and keeps serving other jobs.

#: finished jobs' replicas a worker keeps idle for later jobs: the
#: daemon benchmark's 2 clients over 2 evaluator identities reuse 4 per
#: worker (hit rate 0.98; at a bound of 2 it fell to 0.16-0.66)
IDLE_REPLICAS = 4

#: the ``"search"`` payload fields a replica is built from; the GA
#: config, seed, executor and job name do not reach the evaluator
_IDENTITY_FIELDS = ("model", "calib", "fitness", "objective", "act_sf_mode")


def replica_identity(payload) -> tuple | None:
    """The evaluator identity of a job payload, or ``None`` for a
    payload whose replica is never reused.

    Only ``"search"`` wire payloads have one: a hash of the spec's
    model, calibration, fitness, objective and activation-mode fields
    plus the encoded layer statistics, next to the model builder and
    calibration source those names resolve to in this process, so a
    name registered again (``replace=True``) builds afresh.  An
    ``"evaluator"`` payload carries live or pickled models and state
    dicts, and a live spec (serial pool) is the caller's own object, so
    neither reuses.
    """
    if not isinstance(payload, dict) or payload.get("kind") != "search":
        return None
    search = payload["search"]
    fields = [payload.get("version"), search.get("version"),
              payload.get("stats")]
    fields += [search.get(name) for name in _IDENTITY_FIELDS]
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return (
        hashlib.sha256(text.encode("utf-8")).hexdigest(),
        spec_registry.resolve("model", search["model"]),
        spec_registry.resolve("calib", search["calib"]["source"]),
    )


class _IdleReplicas:
    """Finished jobs' replicas, kept for later jobs with the same
    evaluator identity: at most :data:`IDLE_REPLICAS`, the least
    recently released dropped first.

    :meth:`put` drops the replica's evaluation caches and its model's
    forward state first, so an idle replica holds only its model's
    parameters, calibration images and FP references.
    :meth:`take` hands a replica to one job and removes it from the
    set, so no two jobs share one.  Thread-safe: one set serves every
    session of a socket worker.  ``perf`` (optional) counts the
    ``worker.replicas`` evictions; hits and misses travel in the job's
    own perf deltas (:class:`_ReplicaTable`).
    """

    def __init__(self, perf=None) -> None:
        self.perf = perf
        #: (identity, table entry), least recently released first
        self._entries: list[tuple[tuple, list]] = []
        self._lock = threading.Lock()

    def put(self, identity: tuple, entry: list) -> None:
        evaluator = entry[0].evaluator
        evaluator.reset_caches()
        evaluator.model.drop_forward_state()
        with self._lock:
            self._entries.append((identity, entry))
            evicted = len(self._entries) - IDLE_REPLICAS
            if evicted > 0:
                del self._entries[:evicted]
        if evicted > 0 and self.perf is not None:
            self.perf.cache("worker.replicas").evict(evicted)

    def take(self, identity: tuple) -> list | None:
        with self._lock:
            for idx in range(len(self._entries) - 1, -1, -1):
                if self._entries[idx][0] == identity:
                    return self._entries.pop(idx)[1]
        return None

    def replicas(self) -> list:
        """The idle replicas, least recently released first."""
        with self._lock:
            return [entry[0] for _, entry in self._entries]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class _ReplicaTable:
    """Job → payload, plus each job's replica, built on its first chunk
    with a private perf registry.

    ``payloads`` is used as given, not copied.  ``blobs`` and ``fetch``
    resolve a wire payload's blob refs (:func:`repro.spec.wire.decode_job`).
    A replica owns the model a wire payload decodes to.  A live or
    unpickled spec's model instance is scored in place, with no copy,
    unless another job in the table holds the same instance or the job
    loads a state dict into it; then the replica deep-copies it first.

    With an ``idle`` set (:class:`_IdleReplicas`), :meth:`release`
    keeps a finished job's replica there under its
    :func:`replica_identity`, and a later job with the same identity
    takes it instead of building one.  A replica whose evaluation
    raised is never kept.  Each build counts a ``worker.replicas`` miss
    and each reuse a hit, in the replica's registry, so both reach the
    job's perf with its first chunk.
    """

    def __init__(self, payloads: dict, blobs=None, fetch=None,
                 idle: _IdleReplicas | None = None) -> None:
        self.payloads = payloads
        #: job → [replica, its registry, the registry's last snapshot,
        #: its identity (None: never reused)]
        self.replicas: dict[str, list] = {}
        self.blobs = blobs
        self._fetch = fetch
        self.idle = idle

    def add(self, job: str, payload) -> None:
        self.payloads[job] = payload

    def release(self, job: str) -> None:
        self.payloads.pop(job, None)
        entry = self.replicas.pop(job, None)
        if entry is not None and entry[3] is not None \
                and self.idle is not None:
            self.idle.put(entry[3], entry)

    def keep(self, live) -> None:
        """Release every job not in ``live``."""
        for job in list(self.payloads) + list(self.replicas):
            if job not in live:
                self.release(job)

    def _copies(self, job: str, spec: EvaluatorSpec) -> bool:
        # a job that joins later may load its own state dict into a
        # shared instance, so a stateful job copies too
        return spec.model is not None and (
            spec.state is not None or any(
                getattr(other, "model", None) is spec.model
                for name, other in self.payloads.items()
                if name != job
            )
        )

    def _replica(self, job: str):
        entry = self.replicas.get(job)
        if entry is not None:
            return entry
        if job not in self.payloads:
            raise RuntimeError(
                f"job {job!r} was never registered on this worker"
            )
        try:
            spec = self.payloads[job]
            copy = False
            identity = None
            if isinstance(spec, dict):
                from ..spec.wire import decode_job

                if self.idle is not None:
                    identity = replica_identity(spec)
                    entry = self.idle.take(identity) if identity else None
                    if entry is not None:
                        entry[2] = entry[1].snapshot()
                        entry[1].cache("worker.replicas").hit()
                        self.replicas[job] = entry
                        return entry
                spec = decode_job(spec, blobs=self.blobs, fetch=self._fetch)
            else:
                copy = self._copies(job, spec)
            registry = PerfRegistry()
            replica = spec.build(perf=registry, copy_model=copy)
            entry = [replica, registry, registry.snapshot(), identity]
            registry.cache("worker.replicas").miss()
        except Exception as exc:
            raise RuntimeError(
                f"evaluator replica for job {job!r} failed to "
                "initialize in worker"
            ) from exc
        self.replicas[job] = entry
        return entry

    def run(self, job: str, solutions):
        """Score ``solutions`` on ``job``'s replica; returns ``(fits,
        perf delta, elapsed seconds, error)``, where ``error`` is
        ``None`` or the failure's traceback and the other two are then
        ``None``."""
        start = time.perf_counter()
        entry = None
        try:
            entry = self._replica(job)
            fits = entry[0].evaluate_many(solutions)
            snap = entry[1].snapshot()
            delta = diff_snapshots(snap, entry[2])
            entry[2] = snap
            return fits, delta, time.perf_counter() - start, None
        except Exception:  # lint: disable=broad-except -- worker boundary: failures travel home as error tuples
            if entry is not None:
                entry[3] = None  # its model may be mid-mutation
            return (
                None, None, time.perf_counter() - start,
                traceback.format_exc(),
            )


def _worker_payload(spec: EvaluatorSpec, search=None, blobs=None):
    """A job's entry in a process worker's table: its plain-JSON wire
    payload (:func:`repro.spec.wire.encode_job`), or the
    :class:`EvaluatorSpec` itself, pickled by the pool, when the wire
    codec rejects it (unimportable models, probe mismatches)."""
    from ..spec.wire import encode_job

    try:
        return encode_job(spec, search, blobs=blobs)
    except ValueError:
        return spec


# One process worker body serves both process stacks: ProcessExecutor
# (a one-job table) and repro.serve's SharedProcessPool (one entry per
# scheduled job; every search runs there).  Each worker receives the
# full job table once at init; a job added later rides with its tasks.
_WORKER_TABLE = _ReplicaTable({})
_WORKER_BLOBS_ERROR: str | None = None


def _init_shared_worker(jobs: dict, blob_table: dict | None = None) -> None:
    global _WORKER_TABLE, _WORKER_BLOBS_ERROR
    # plain assignments first: a raising initializer would respawn
    # workers forever, so payload decoding and replica construction are
    # deferred to the first task per job, and a blob-table attach
    # failure is parked for the task to report.  Each worker process
    # keeps its own idle replicas for the pool's life.
    _WORKER_TABLE = _ReplicaTable(jobs, idle=_IdleReplicas())
    _WORKER_BLOBS_ERROR = None
    one_blas_thread()
    if blob_table:
        try:
            from ..spec.blob import attach_transport_table

            _WORKER_TABLE.blobs = attach_transport_table(blob_table)
        except Exception:  # lint: disable=broad-except -- init failure is parked and re-raised with the first task
            _WORKER_BLOBS_ERROR = traceback.format_exc()


def _evaluate_shared_chunk(job: str, solutions, live=None, added=None):
    """Score ``solutions`` on this worker's replica of ``job``.

    ``live`` (the jobs the pool still holds) makes the worker first
    release every other job, whose replica then waits idle for a later
    job with the same evaluator identity; ``added`` is the
    ``(wire, blob table)`` of a job that joined the pool after start.
    """
    table = _WORKER_TABLE
    if live is not None:
        table.keep(live)
    if added is not None and job not in table.payloads:
        wire, blob_table = added
        table.add(job, wire)
        if blob_table:
            from ..spec.blob import attach_transport_table

            table.blobs = attach_transport_table(blob_table,
                                                 store=table.blobs)
    if _WORKER_BLOBS_ERROR is not None:
        return None, None, 0.0, (
            "shared pool worker could not attach its blob table:\n"
            f"{_WORKER_BLOBS_ERROR}"
        )
    return table.run(job, solutions)


class ProcessExecutor:
    """Process-pool evaluation on the shared worker body, with a
    one-job table.

    Wire-encodable specs ship as a content-addressed wire payload: the
    calibration batch and state dict go into the process-global
    :class:`~repro.spec.blob.BlobStore` and cross the pool boundary as
    shared-memory segments (zero-copy) or, where shm is unavailable, as
    a once-per-worker inline blob table.  Specs the wire codec rejects
    (unimportable models, probe mismatches) travel as the pickled
    :class:`EvaluatorSpec` instead.
    """

    #: the one job name in this executor's worker table
    _JOB = "search"

    def __init__(
        self,
        spec: EvaluatorSpec,
        workers: int,
        perf,
        start_method: str | None = None,
    ) -> None:
        from ..spec.blob import (
            account_transport,
            blob_transport_table,
            get_blob_store,
        )

        self.workers = workers
        self.perf = perf
        store = get_blob_store()
        payload = _worker_payload(spec, blobs=store)
        table, blob_table = {self._JOB: payload}, None
        if isinstance(payload, dict):
            blob_table = blob_transport_table(store)
            account_transport(perf, payload, blob_table, workers)
        ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._pool = ctx.Pool(
            processes=workers,
            initializer=_init_shared_worker,
            initargs=(table, blob_table),
        )

    def evaluate_batch(self, solutions) -> list[float]:
        results = []
        # chunksize 1: population slices are small (a handful of diversity
        # children), so per-candidate dispatch keeps all workers busy
        for fits, delta, _, error in self._pool.starmap(
            _evaluate_shared_chunk,
            [(self._JOB, [sol]) for sol in solutions],
            chunksize=1,
        ):
            if error is not None:
                raise RuntimeError(f"process worker failed:\n{error}")
            self.perf.merge_snapshot(delta)
            results.extend(fits)
        return results

    def close(self) -> None:
        self._pool.close()
        self._pool.join()


def make_executor(spec: EvaluatorSpec, config: ExecutorConfig, perf):
    """Build the executor selected by ``config``.

    Backends dispatch through the executor registry
    (``repro.spec.registry``), so a registered extension backend — a
    factory ``(spec, config, perf) -> executor`` — slots in everywhere
    the built-in three do.
    """
    factory = spec_registry.resolve("executor", config.backend)
    return factory(spec, config, perf)


# -- the built-in backends, in canonical order ---------------------------
spec_registry.register(
    "executor", "serial", lambda spec, config, perf: SerialExecutor(spec, perf)
)
spec_registry.register(
    "executor",
    "process",
    lambda spec, config, perf: ProcessExecutor(
        spec,
        config.resolved_workers(),
        perf,
        start_method=config.start_method,
    ),
)


def _make_remote_executor(spec, config, perf):
    # deferred import: the transport layer builds on repro.serve, which
    # builds on this module
    from ..serve.remote import RemoteExecutor  # lint: disable=registry-bypass -- this IS the registered 'remote' executor factory

    return RemoteExecutor(spec, config, perf)


spec_registry.register("executor", "remote", _make_remote_executor)
