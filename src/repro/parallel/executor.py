"""Executor backends for parallel population evaluation.

Three interchangeable backends score batches of candidates:

* ``serial`` — one replica in the calling thread.  Zero overhead, and
  because the replica records into the ambient perf registry and its
  caches live across batches, a serial run is bit-for-bit *and*
  counter-for-counter the PR-1 incremental engine.
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor` over N
  replicas.  numpy releases the GIL inside BLAS kernels, so medium-size
  models see real concurrency without any pickling.
* ``process`` — a :class:`multiprocessing.pool.Pool` whose workers each
  build a replica from the pickled :class:`EvaluatorSpec` at startup.
  True parallelism; candidates and scalar results are the only per-task
  traffic.
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
"""

from __future__ import annotations

import multiprocessing
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..perf import PerfRegistry, diff_snapshots
from ..spec import registry as spec_registry
from ._blas import one_blas_thread
from .evaluator import EvaluatorReplica, EvaluatorSpec

__all__ = [
    "BACKENDS",
    "ExecutorConfig",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "parse_address",
    "parse_address_list",
]

#: the built-in backends; the executor registry
#: (``repro.spec.registry``) is the source of truth for validation and
#: dispatch, so registered extension backends are accepted everywhere
#: an ``ExecutorConfig`` is
BACKENDS = ("serial", "thread", "process", "remote")


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

    The same config drives single-search executors
    (:func:`repro.quant.lpq_quantize`'s ``executor`` knob) and the
    shared multi-search pools of :class:`repro.serve.SearchScheduler`;
    whatever the backend and worker count, search trajectories are
    bitwise-identical — the knob only changes wall-clock.

    >>> from repro.parallel import ExecutorConfig
    >>> ExecutorConfig().backend  # serial: in-process, zero overhead
    'serial'
    >>> ExecutorConfig("thread", workers=2).resolved_workers()
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
    ValueError: unknown backend 'gpu'; choose from ('serial', 'thread', 'process', 'remote')
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


class ThreadExecutor:
    """Thread-pool evaluation over per-worker replicas.

    Replicas are handed out through a queue so each is used by exactly
    one task at a time; each owns a private registry whose per-task
    deltas are merged by the submitting thread, keeping merges ordered
    and race-free.
    """

    def __init__(self, spec: EvaluatorSpec, workers: int, perf) -> None:
        self.workers = workers
        self.perf = perf
        self._replicas: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(workers):
            registry = PerfRegistry()
            replica = spec.build(perf=registry, copy_model=True)
            self._replicas.put((replica, registry, [registry.snapshot()]))
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-eval"
        )

    def _evaluate_one(self, solution):
        slot = self._replicas.get()
        replica, registry, last_snap = slot
        try:
            fitness = replica.evaluate_many([solution])[0]
            snap = registry.snapshot()
            delta = diff_snapshots(snap, last_snap[0])
            last_snap[0] = snap
            return fitness, delta
        finally:
            self._replicas.put(slot)

    def evaluate_batch(self, solutions) -> list[float]:
        futures = [
            self._pool.submit(self._evaluate_one, sol) for sol in solutions
        ]
        results = []
        for future in futures:  # submission order == result order
            fitness, delta = future.result()
            self.perf.merge_snapshot(delta)
            results.append(fitness)
        return results

    def close(self) -> None:
        self._pool.shutdown(wait=True)


# -- process backend ----------------------------------------------------
# Worker state lives in module globals: multiprocessing initializes each
# worker once with the pickled spec (or its wire payload + blob transport
# table), then tasks only carry candidates.
_WORKER_REPLICA: EvaluatorReplica | None = None
_WORKER_PERF: PerfRegistry | None = None
_WORKER_SNAP: dict | None = None
_WORKER_INIT_ERROR: str | None = None


def _init_worker(spec: EvaluatorSpec | None, wire: dict | None = None,
                 blob_table: dict | None = None) -> None:
    global _WORKER_REPLICA, _WORKER_PERF, _WORKER_SNAP, _WORKER_INIT_ERROR
    # the initializer must never raise: multiprocessing.Pool responds to
    # an initializer exception by silently respawning the worker forever,
    # turning a bad spec into a hang.  Swallow the error here and let the
    # first task report it instead.
    try:
        one_blas_thread()
        _WORKER_PERF = PerfRegistry()
        if wire is not None:
            from ..spec.blob import attach_transport_table
            from ..spec.wire import decode_job

            blobs = (
                attach_transport_table(blob_table) if blob_table else None
            )
            spec = decode_job(wire, blobs=blobs)
        # a fresh process owns its (inherited or unpickled) spec outright
        # — no copy needed even when the spec carries a model instance
        _WORKER_REPLICA = spec.build(perf=_WORKER_PERF, copy_model=False)
        _WORKER_SNAP = _WORKER_PERF.snapshot()
        _WORKER_INIT_ERROR = None
    except BaseException:  # lint: disable=broad-except -- worker-process boundary: init failure is parked and reported via the first result
        import traceback

        _WORKER_REPLICA = None
        _WORKER_INIT_ERROR = traceback.format_exc()


def _evaluate_in_worker(solution):
    global _WORKER_SNAP
    if _WORKER_REPLICA is None:
        raise RuntimeError(
            "evaluator replica failed to initialize in worker:\n"
            f"{_WORKER_INIT_ERROR or 'worker not initialized'}"
        )
    fitness = _WORKER_REPLICA.evaluate_many([solution])[0]
    snap = _WORKER_PERF.snapshot()
    delta = diff_snapshots(snap, _WORKER_SNAP)
    _WORKER_SNAP = snap
    return fitness, delta


class ProcessExecutor:
    """Process-pool evaluation; workers rebuild replicas from the spec.

    Wire-encodable specs ship as a content-addressed wire payload: the
    calibration batch and state dict go into the process-global
    :class:`~repro.spec.blob.BlobStore` and cross the pool boundary as
    shared-memory segments (zero-copy) or, where shm is unavailable, as
    a once-per-worker inline blob table.  Specs the wire codec rejects
    (unimportable models, probe mismatches) fall back to the original
    pickled-spec path, byte-identical to before.
    """

    def __init__(
        self,
        spec: EvaluatorSpec,
        workers: int,
        perf,
        start_method: str | None = None,
    ) -> None:
        self.workers = workers
        self.perf = perf
        initargs = (spec,)
        self._blob_table = None
        try:
            from ..spec.blob import (
                account_transport,
                blob_transport_table,
                get_blob_store,
            )
            from ..spec.wire import encode_job

            store = get_blob_store()
            wire = encode_job(spec, blobs=store)
            self._blob_table = blob_transport_table(store)
            initargs = (None, wire, self._blob_table)
            account_transport(perf, wire, self._blob_table, workers)
        except ValueError:
            pass  # not wire-encodable: pickle the spec as before
        ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._pool = ctx.Pool(
            processes=workers, initializer=_init_worker, initargs=initargs
        )

    def evaluate_batch(self, solutions) -> list[float]:
        results = []
        # chunksize 1: population slices are small (a handful of diversity
        # children), so per-candidate dispatch keeps all workers busy
        for fitness, delta in self._pool.map(
            _evaluate_in_worker, solutions, chunksize=1
        ):
            self.perf.merge_snapshot(delta)
            results.append(fitness)
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
    "thread",
    lambda spec, config, perf: ThreadExecutor(
        spec, config.resolved_workers(), perf
    ),
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
