"""Multi-search service layer: many LPQ searches, one worker pool.

:mod:`repro.parallel` made a *single* search parallel — population
slices fan out across worker replicas built from an
:class:`~repro.parallel.EvaluatorSpec`.  This package makes *fleets* of
searches share that machinery:

* :class:`SearchScheduler` — accepts many search jobs (model ×
  fitness config × budget, or a declarative
  :class:`~repro.spec.SearchSpec` via ``submit(name, spec=...)``),
  drives each job's :meth:`~repro.quant.LPQEngine.work_units`
  coroutine, and multiplexes every job's candidate chunks onto one
  shared serial/process pool with cost-adaptive chunking.
  Per-job :class:`SearchHandle` futures; job-scoped failure and
  cancellation.
* :func:`lpq_quantize_many` — one-call quantization of a model fleet
  (the paper's Table 1 / Fig. 5 zoo sweeps), returning a
  ``{name: LPQResult}`` map.  Accepts live models or a fleet of
  :class:`~repro.spec.SearchSpec` values.
* :mod:`repro.serve.pool` — the shared multi-job executor backends
  behind one transport-agnostic :class:`WorkerPool` protocol
  (``submit``/``start``/``close``/``workers``/``healthy``).  The
  process pool's job payloads are plain JSON (:mod:`repro.spec.wire`),
  never pickled evaluator objects.
* :mod:`repro.serve.remote` — the same payloads across TCP sockets:
  standalone :class:`~repro.serve.remote.WorkerServer` workers
  (``scripts/run_worker.py``) and the
  :class:`~repro.serve.remote.SharedRemotePool` client with token
  handshake, heartbeat liveness, and dead-worker requeue.
* :mod:`repro.serve.resilience` — the committed recovery policy
  (:class:`~repro.serve.resilience.RetryPolicy`: deterministic
  backoff, retry budgets, deadlines, fleet-wait) that makes the fleet
  *elastic*: dead addresses are re-dialed so restarted workers rejoin
  mid-search, poison chunks are quarantined to a local fallback, and
  ``on_fleet_death="local"`` degrades to in-process evaluation.
* :mod:`repro.serve.chaos` — deterministic fault injection
  (:class:`~repro.serve.chaos.FaultPlan` schedules,
  :class:`~repro.serve.chaos.ChaosFleet` misbehaving local fleets)
  proving all of the above keeps results bitwise-identical.
* :mod:`repro.serve.server` — the always-on front door:
  :class:`~repro.serve.server.SearchServer`
  (``scripts/run_server.py``) accepts spec submissions over the wire
  protocol, multiplexes them onto one scheduler over any backend, and
  makes jobs durable via :mod:`repro.serve.store` (append-only
  journal + ``SearchSpec.digest()``-keyed result store) — a restarted
  daemon recovers its queue, replays done jobs from the store, and
  re-runs interrupted jobs bitwise-identically.
  :class:`~repro.serve.server.SearchClient` (``run_search.py
  --server``) submits, streams progress, and reconnects across
  daemon restarts.

The layer's invariant matches the rest of the stack: scheduling is
never allowed to move a bit.  Every per-job result is bitwise-identical
to a standalone :func:`repro.quant.lpq_quantize` run with the same
seed, on every backend at any worker count — one host or many.
"""

from .pool import (
    ChunkResult,
    SharedProcessPool,
    SharedSerialPool,
    WorkerPool,
    make_shared_pool,
)
from .scheduler import SearchHandle, SearchScheduler
from .api import lpq_quantize_many

__all__ = [
    "ChaosFleet",
    "ChunkResult",
    "FaultPlan",
    "Journal",
    "ResultStore",
    "RetryPolicy",
    "SearchClient",
    "SearchHandle",
    "SearchScheduler",
    "SearchServer",
    "ServerError",
    "SharedProcessPool",
    "SharedRemotePool",
    "SharedSerialPool",
    "WorkerPool",
    "WorkerServer",
    "lpq_quantize_many",
    "make_shared_pool",
    "result_record",
]

#: lazily-imported name → submodule (the transport layer pulls in
#: sockets/threads only when used)
_LAZY = {
    "SharedRemotePool": "remote",
    "WorkerServer": "remote",
    "RetryPolicy": "resilience",
    "FaultPlan": "chaos",
    "ChaosFleet": "chaos",
    "SearchServer": "server",
    "SearchClient": "server",
    "ServerError": "server",
    "Journal": "store",
    "ResultStore": "store",
    "result_record": "store",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is not None:
        import importlib

        module = importlib.import_module(f".{submodule}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
