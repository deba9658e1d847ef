"""Multi-search scheduler: many LPQ searches on one shared worker pool.

One :class:`SearchScheduler` holds any number of LPQ search *jobs*
(model × :class:`~repro.quant.FitnessConfig` × search budget) and
drives them concurrently over a single shared executor
(:mod:`repro.serve.pool`).  Each job is an
:class:`~repro.quant.LPQEngine` driven through its
:meth:`~repro.quant.LPQEngine.work_units` coroutine: the engine yields
candidate batches (the Step-1 population first, then one batch per GA
step), the scheduler splits every batch into cost-adaptive chunks, and
chunks from *all* jobs interleave freely on the pool — block-level
pipelining within a job, job-level pipelining across the fleet.

Determinism is inherited, not re-proven: all engine RNG is drawn at
generation time in the standalone order, chunk results are reassembled
by ``(seq, chunk)`` tags before they reach the engine, and every worker
replica is a byte-identical reconstruction of the job's
:class:`~repro.parallel.EvaluatorSpec` — rebuilt in-process for the
serial pool, and from the job's plain-JSON wire payload
(:mod:`repro.spec.wire`) for the process pool.  Scheduling therefore
cannot move a bit — per-job results are bitwise-identical to a
standalone :func:`repro.quant.lpq_quantize` with the same seed (itself
a one-job scheduler run), on every backend
(``tests/serve/test_scheduler.py`` asserts exactly this).

Failure is job-scoped: a replica that raises fails its own job (the
handle reports the worker traceback) while the pool and every other job
keep running.  Cancellation via :meth:`SearchHandle.cancel` takes
effect at the next batch boundary.

Admission is continuous: :meth:`SearchScheduler.submit` may be called
from another thread while :meth:`SearchScheduler.run` is running, and
the new job joins that run at its next chunk result, on the same pool.
This is what the search daemon (:mod:`repro.serve.server`) runs on: one
``run()`` per busy period, however many jobs arrive during it.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
import traceback
from dataclasses import dataclass, field

from ..parallel import EvaluatorSpec, ExecutorConfig
from ..perf import PerfRegistry, diff_snapshots, get_perf
from ..quant import (
    LPQConfig,
    LPQEngine,
    LPQResult,
    LayerStats,
    OBJECTIVES,
    collect_layer_stats,
    derive_activation_params,
)
from .pool import make_shared_pool

__all__ = ["SearchHandle", "SearchScheduler"]

#: sentinel objective name meaning "the paper's FitnessEvaluator"
_DEFAULT_OBJECTIVE = "global_local_contrastive"

#: weight of the newest chunk in a job's per-candidate cost estimate
COST_EWMA = 0.5


class SearchHandle:
    """Per-job future returned by :meth:`SearchScheduler.submit`.

    Resolved by :meth:`SearchScheduler.run`: afterwards exactly one of
    ``done`` (``result()`` returns the job's
    :class:`~repro.quant.LPQResult`), ``failed`` (``result()`` raises
    with the worker traceback in ``error``), or ``cancelled`` is true.
    ``cancel()`` may be called before or during ``run()``; it takes
    effect at the job's next batch boundary.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._status = "pending"
        self._result: LPQResult | None = None
        self._error: str | None = None
        self._perf: dict | None = None
        self._cancel_requested = False

    # -- state ----------------------------------------------------------
    @property
    def status(self) -> str:
        """One of ``pending`` / ``done`` / ``failed`` / ``cancelled``."""
        return self._status

    @property
    def done(self) -> bool:
        return self._status == "done"

    @property
    def failed(self) -> bool:
        return self._status == "failed"

    @property
    def cancelled(self) -> bool:
        return self._status == "cancelled"

    @property
    def finished(self) -> bool:
        return self._status != "pending"

    @property
    def error(self) -> str | None:
        return self._error

    @property
    def perf(self) -> dict | None:
        """The job's merged perf snapshot (engine events + every worker
        delta attributed to this job), available once finished."""
        return self._perf

    def cancel(self) -> None:
        """Request cancellation (no-op once the job has finished)."""
        self._cancel_requested = True

    def result(self) -> LPQResult:
        """The job's :class:`~repro.quant.LPQResult` (raises otherwise)."""
        if self._status == "done":
            return self._result
        if self._status == "failed":
            raise RuntimeError(
                f"search job {self.name!r} failed:\n{self._error}"
            )
        if self._status == "cancelled":
            raise RuntimeError(f"search job {self.name!r} was cancelled")
        raise RuntimeError(
            f"search job {self.name!r} has not run yet; call "
            "SearchScheduler.run()"
        )

    # -- resolution (scheduler-internal) --------------------------------
    def _resolve(self, result: LPQResult) -> None:
        self._status, self._result = "done", result

    def _fail(self, error: str) -> None:
        self._status, self._error = "failed", error

    def _mark_cancelled(self) -> None:
        self._status = "cancelled"


@dataclass
class _JobState:
    """Scheduler-internal bookkeeping for one search job.

    A job is cheap until it starts: a declarative one holds its
    :class:`~repro.spec.SearchSpec` and resolves model and calibration
    batch on first use of :attr:`spec`; layer statistics and the engine
    are built when :meth:`SearchScheduler.run` admits it.  A finished
    job keeps only its handle and counters.
    """

    name: str
    handle: SearchHandle
    perf: PerfRegistry | None
    config: LPQConfig | None = None
    act_sf_mode: str = "calibrated"
    search: object | None = None  # SearchSpec of a declarative submission
    _spec: EvaluatorSpec | None = None
    engine: LPQEngine | None = None
    stats: LayerStats | None = None
    gen: object | None = None
    seq: int = -1
    chunk_fits: dict[int, list] = field(default_factory=dict)
    chunks_outstanding: int = 0
    evaluations: int = 0  # candidates sent to the workers
    computed_evaluations: int = 0  # the same number: there is no memo
    cost_est: float | None = None  # EWMA seconds per candidate
    event_snap: dict | None = None  # perf snapshot at the last on_batch

    @property
    def spec(self) -> EvaluatorSpec | None:
        """The job's evaluator recipe (``None`` once it has finished)."""
        if self._spec is None and self.search is not None \
                and not self.handle.finished:
            search = self.search
            self._spec = EvaluatorSpec(
                images=search.build_calib(),
                model=search.build_model(),
                config=search.fitness,
                objective=(
                    None if search.objective == _DEFAULT_OBJECTIVE
                    else search.objective
                ),
                act_mode=search.act_sf_mode,
            )
        return self._spec

    def drop(self) -> None:
        """Forget everything but the handle and the counters, so a
        ``run()`` that lasts a daemon's life stays bounded."""
        self._spec = self.search = self.engine = self.stats = None
        self.gen = self.event_snap = None
        self.perf = None
        self.chunk_fits = {}


class SearchScheduler:
    """Runs many LPQ searches concurrently on one shared executor pool.

    ``executor`` is the same :class:`~repro.parallel.ExecutorConfig`
    knob as single-job searches (``serial`` / ``process`` / ``remote``
    backends); ``target_chunk_s`` sets the wall-clock a single submitted
    chunk should cost, which the adaptive chunker divides by each job's
    measured per-candidate cost — cheap-model jobs ship large chunks
    (low dispatch overhead), expensive-model jobs ship small ones (no
    pool starvation).  The first batch of every job is submitted at
    chunk size 1 to seed the cost estimate with maximum parallelism.
    ``max_active_jobs`` bounds how many jobs are in flight at once
    (``None``: all of them); the rest start as jobs end, higher
    ``priority`` first and ties in submission order.  Every pool worker
    holds one evaluator replica per job it has served until that job
    ends (then at most a few idle ones for later jobs with the same
    evaluator), so the bound caps worker memory on long sweeps.

    Submit jobs, then call :meth:`run`; per-job :class:`SearchHandle`
    futures resolve to :class:`~repro.quant.LPQResult` values that are
    bitwise-identical to standalone :func:`repro.quant.lpq_quantize`
    runs with the same configuration.  :meth:`submit` is thread-safe
    and cheap: a job submitted while :meth:`run` is running joins that
    run, on its pool, at the next chunk result.

    >>> import numpy as np
    >>> from repro import nn
    >>> from repro.quant import LPQConfig, lpq_quantize
    >>> from repro.serve import SearchScheduler
    >>> nn.seed(0)
    >>> class Tiny(nn.Module):
    ...     def __init__(self):
    ...         super().__init__()
    ...         self.conv = nn.Conv2d(3, 4, 3, padding=1, bias=False)
    ...         self.bn = nn.BatchNorm2d(4)
    ...         self.pool = nn.GlobalAvgPool()
    ...         self.head = nn.Linear(4, 4)
    ...     def forward(self, x):
    ...         return self.head(self.pool(self.bn(self.conv(x))))
    >>> model = Tiny().eval()
    >>> images = np.random.default_rng(0).normal(
    ...     size=(4, 3, 8, 8)).astype(np.float32)
    >>> config = LPQConfig(population=3, passes=1, cycles=1,
    ...                    diversity_parents=2, hw_widths=(4, 8), seed=1)
    >>> scheduler = SearchScheduler()
    >>> handle = scheduler.submit("tiny", model, images, config=config)
    >>> results = scheduler.run()
    >>> handle.done
    True
    >>> standalone = lpq_quantize(model, images, config=config)
    >>> results["tiny"].solution == standalone.solution
    True
    """

    def __init__(
        self,
        executor: ExecutorConfig | None = None,
        target_chunk_s: float = 0.25,
        perf=None,
        on_batch=None,
        on_finished=None,
        max_active_jobs: int | None = None,
        on_started=None,
    ) -> None:
        if target_chunk_s <= 0:
            raise ValueError("target_chunk_s must be positive")
        if max_active_jobs is not None and max_active_jobs < 1:
            raise ValueError("max_active_jobs must be at least 1")
        self.executor_config = executor or ExecutorConfig()
        self.target_chunk_s = target_chunk_s
        self.max_active_jobs = max_active_jobs
        self.perf = perf if perf is not None else get_perf()
        #: progress hook — called as ``on_batch(name, info)`` after each
        #: evaluated candidate batch with the job's generation counter,
        #: evaluation counts, best-so-far fitness, and the perf-counter
        #: delta since the previous call.  ``on_started(name)`` fires
        #: when :meth:`run` admits a job, before its model is built;
        #: ``on_finished(name, handle)`` fires once per job as it
        #: reaches a terminal state.  All three run on the thread that
        #: called :meth:`run`; an exception raised by one propagates out
        #: of :meth:`run` (the search-daemon crash tests rely on this).
        self.on_batch = on_batch
        self.on_started = on_started
        self.on_finished = on_finished
        self._jobs: dict[str, _JobState] = {}
        #: guards ``_jobs`` inserts, ``_waiting`` and ``_wake`` against
        #: submit() calls from other threads; never held over a hook
        self._lock = threading.Lock()
        #: jobs not yet started, as a heap of (-priority, order, name)
        self._waiting: list[tuple] = []
        self._order = itertools.count()
        #: the result queue of the running :meth:`run` (None otherwise);
        #: submit() puts a ``None`` on it to wake the loop
        self._wake: queue.SimpleQueue | None = None
        #: the shared pool of the current :meth:`run` call (None between
        #: runs); :meth:`stats` reads its worker count and membership
        self._pool = None

    # -- job submission --------------------------------------------------
    def submit(
        self,
        name: str,
        model=None,
        calib_images=None,
        *,
        builder=None,
        state=None,
        config: LPQConfig | None = None,
        fitness_config=None,
        objective: str = _DEFAULT_OBJECTIVE,
        act_sf_mode: str = "calibrated",
        stats: LayerStats | None = None,
        spec=None,
        priority: int = 0,
    ) -> SearchHandle:
        """Register one LPQ search job; returns its :class:`SearchHandle`.

        The model source mirrors :class:`~repro.parallel.EvaluatorSpec`:
        either a ``model`` instance or a picklable ``builder`` callable
        (optionally with a ``state`` dict of trained weights).  The
        remaining knobs mirror :func:`repro.quant.lpq_quantize` —
        a scheduler job is the same search, just multiplexed.

        ``spec`` (a :class:`repro.spec.SearchSpec`, mutually exclusive
        with every other search argument) submits a declarative request
        instead: model and calibration batch resolve from the spec's
        registry references, and — on the process backend — the job
        crosses the pool boundary as the spec's own plain-JSON payload.
        The spec's ``executor`` field is ignored here; the scheduler's
        shared pool is the executor for every job it runs.

        Submission only validates and queues: the model, calibration
        batch and layer statistics are built when :meth:`run` starts
        the job, on its thread.  Safe to call from another thread while
        :meth:`run` is running; the job then joins that run.  Waiting
        jobs start highest ``priority`` first, ties in submission order.
        """
        search = None
        espec = None
        if spec is not None:
            from ..spec.spec import SearchSpec, reject_spec_conflicts

            if not isinstance(spec, SearchSpec):
                raise TypeError(
                    f"spec must be a repro.spec.SearchSpec, got "
                    f"{type(spec).__name__}"
                )
            reject_spec_conflicts(
                "submit(spec=...)",
                (
                    ("model", model),
                    ("calib_images", calib_images),
                    ("builder", builder),
                    ("state", state),
                    ("config", config),
                    ("fitness_config", fitness_config),
                    ("stats", stats),
                ),
                objective=objective,
                act_sf_mode=act_sf_mode,
            )
            if not spec.serializable:
                raise ValueError(
                    "submit(spec=...) needs a registered model name and a "
                    "calibration descriptor; pass live objects as "
                    "model/calib_images instead"
                )
            search = spec
            config = spec.search_config()
            objective = spec.objective
            act_sf_mode = spec.act_sf_mode
        elif calib_images is None:
            raise ValueError("calib_images is required")
        if objective not in OBJECTIVES and objective != _DEFAULT_OBJECTIVE:
            raise ValueError(
                f"unknown objective {objective!r}; choose from "
                f"{sorted(OBJECTIVES) + [_DEFAULT_OBJECTIVE]}"
            )
        if act_sf_mode not in ("calibrated", "recurrence"):
            raise ValueError(f"unknown activation sf mode {act_sf_mode!r}")
        if search is None:
            if (model is None) == (builder is None):
                raise ValueError("exactly one of model or builder is required")
            espec = EvaluatorSpec(
                images=calib_images,
                builder=builder,
                state=state,
                model=model,
                config=fitness_config,
                objective=(
                    None if objective == _DEFAULT_OBJECTIVE else objective
                ),
                act_mode=act_sf_mode,
                stats=stats,
            )
        handle = SearchHandle(name)
        with self._lock:
            if name in self._jobs:
                raise ValueError(f"duplicate job name {name!r}")
            st = _JobState(
                name=name,
                handle=handle,
                perf=PerfRegistry(),
                config=config,
                act_sf_mode=act_sf_mode,
                search=search,
                _spec=espec,
            )
            self._jobs[name] = st
            heapq.heappush(
                self._waiting, (-int(priority), next(self._order), name)
            )
            if self._wake is not None:
                self._wake.put(None)  # a running loop admits it
        return handle

    @property
    def handles(self) -> dict[str, SearchHandle]:
        with self._lock:
            return {name: st.handle for name, st in self._jobs.items()}

    def _forget(self, name: str) -> None:
        """Drop finished job ``name`` from the table, so neither it nor
        :meth:`stats` grows over a daemon's life.  The caller keeps its
        own record of the job; its handle stays valid.  A job that has
        not finished, or an unknown name, is left alone."""
        with self._lock:
            st = self._jobs.get(name)
            if st is not None and st.handle.finished:
                del self._jobs[name]

    def stats(self) -> dict:
        """Advisory point-in-time scheduling facts for status views.

        Per job: lifecycle state, current batch ``seq``, chunks still in
        flight, and evaluation totals; plus the pool-wide queue depth
        (every job's outstanding chunks summed), the current worker
        parallelism, and per-worker fleet membership
        (:meth:`~repro.serve.pool.WorkerPool.membership`, non-empty on
        the remote backend).  It only copies the job table under the
        submit lock — values may be one batch stale, and reading them
        never perturbs a running search (the daemon's ``fleet_status``
        op is built on exactly this).
        """
        jobs = {}
        queue_depth = 0
        with self._lock:
            states = list(self._jobs.items())
        for name, st in states:
            outstanding = max(0, st.chunks_outstanding)
            if not st.handle.finished:
                queue_depth += outstanding
            jobs[name] = {
                "state": st.handle.status,
                "seq": st.seq,
                "chunks_outstanding": outstanding,
                "evaluations": st.evaluations,
                "computed_evaluations": st.computed_evaluations,
            }
        pool = self._pool
        return {
            "jobs": jobs,
            "queue_depth": queue_depth,
            "workers": pool.workers if pool is not None else 0,
            "fleet": pool.membership() if pool is not None else [],
        }

    # -- the multiplexing loop -------------------------------------------
    def run(self) -> dict[str, LPQResult]:
        """Drive every waiting job, and every job submitted while this
        runs, to completion on one shared pool.

        Returns ``{name: LPQResult}`` for the jobs that completed in
        this call; failed or cancelled jobs are reported through their
        handles instead.  Returns once no job is left, closing the pool;
        may be called again after submitting more jobs.
        """
        results_q: queue.SimpleQueue = queue.SimpleQueue()
        with self._lock:
            if self._wake is not None:
                raise RuntimeError("SearchScheduler.run() is already running")
            self._wake = results_q
        admitted: list[_JobState] = []
        outstanding = active = 0
        pool = None
        try:
            while True:
                starting = self._admit(active)
                admitted += starting
                starting, pool = self._launch(starting, pool, results_q)
                for st in starting:
                    submitted = self._start_job(st, pool)
                    outstanding += submitted
                    active += submitted > 0
                if not outstanding:
                    with self._lock:
                        if not self._waiting:
                            self._wake = None  # later jobs need a run()
                            break
                    continue
                res = results_q.get()
                if res is None:
                    continue  # submit() woke the loop: admit the job
                outstanding -= 1
                st = self._jobs.get(res.job)
                if st is None or st.handle.finished or res.seq != st.seq:
                    continue  # stale chunk of a failed/finished job
                if res.error is not None:
                    self._finalize_failed(st, res.error)
                    active -= 1
                    continue
                st.perf.merge_snapshot(res.perf_delta)
                self._update_cost(st, res)
                st.chunk_fits[res.chunk] = res.fits
                st.chunks_outstanding -= 1
                if st.chunks_outstanding == 0:
                    fits = [
                        fit
                        for chunk in sorted(st.chunk_fits)
                        for fit in st.chunk_fits[chunk]
                    ]
                    self._emit_batch(st)
                    submitted = self._advance(st, pool, fits)
                    outstanding += submitted
                    active -= submitted == 0
        except Exception:
            # the pool or a hook broke the loop: no started job can
            # finish now, so each fails with the cause
            error = traceback.format_exc()
            for st in admitted:
                if not st.handle.finished:
                    self._finalize_failed(st, error)
            raise
        finally:
            with self._lock:
                self._wake = None
            self._pool = None
            if pool is not None:
                pool.close()
        return {
            st.name: st.handle._result for st in admitted if st.handle.done
        }

    def _admit(self, active: int) -> list[_JobState]:
        """Pop the waiting jobs that may start now, highest priority
        first, so that at most ``max_active_jobs`` are in flight.  A job
        cancelled while it waited ends here without starting."""
        limit = self.max_active_jobs
        starting, cancelled = [], []
        with self._lock:
            while self._waiting and (
                limit is None or active + len(starting) < limit
            ):
                st = self._jobs[heapq.heappop(self._waiting)[2]]
                if st.handle._cancel_requested:
                    cancelled.append(st)
                else:
                    starting.append(st)
        for st in cancelled:
            self._finalize_cancelled(st)
        return starting

    def _launch(self, starting: list, pool, results_q):
        """Build the starting jobs' statistics and engines and put them
        on the pool (made here for the first of them).  Returns the jobs
        ready to run and the pool; a job that cannot be built or
        encoded fails alone."""
        if self.on_started is not None:
            for st in starting:
                self.on_started(st.name)
        ready = [st for st in starting if self._prepare(st)]
        if not ready:
            return ready, pool
        if pool is None:
            pool = make_shared_pool(
                {st.name: st.spec for st in ready},
                self.executor_config,
                results_q,
                search_specs={
                    st.name: st.search for st in ready
                    if st.search is not None
                },
            )
            self._pool = pool
            return ready, pool
        added = []
        for st in ready:
            try:
                pool.add(st.name, st.spec, st.search)
            except ValueError:  # the job cannot cross the pool's wire
                self._finalize_failed(st, traceback.format_exc())
                continue
            added.append(st)
        return added, pool

    def _prepare(self, st: _JobState) -> bool:
        try:
            espec = st.spec
            if espec.stats is None:  # the caller did not precollect them
                # a job's own state dict must not land in the caller's
                # instance, so a stateful instance is copied first
                espec.stats = collect_layer_stats(
                    espec._model(copy_model=espec.state is not None),
                    espec.images,
                )
            st.stats = espec.stats
            st.engine = LPQEngine(
                None, st.stats.weight_log_centers, st.config, perf=st.perf
            )
        except Exception:  # lint: disable=broad-except -- job isolation: a model that cannot be built fails its own job only
            self._finalize_failed(st, traceback.format_exc())
            return False
        return True

    # -- per-job driving -------------------------------------------------
    def _start_job(self, st: _JobState, pool) -> int:
        st.gen = st.engine.work_units()
        return self._advance(st, pool, None)

    def _advance(self, st: _JobState, pool, fits) -> int:
        """Feed results back and submit the next batch; returns the
        number of chunks submitted (0 = job reached a terminal state)."""
        try:
            batch = next(st.gen) if fits is None else st.gen.send(fits)
        except StopIteration:
            self._finalize_done(st)
            return 0
        except Exception:  # lint: disable=broad-except -- job isolation: one job's engine failure must only fail that job
            self._finalize_failed(st, traceback.format_exc())
            return 0
        if st.handle._cancel_requested:
            self._finalize_cancelled(st)
            return 0
        return self._submit_batch(st, pool, batch)

    def _submit_batch(self, st: _JobState, pool, batch: list) -> int:
        st.seq += 1
        st.evaluations += len(batch)
        st.computed_evaluations += len(batch)
        chunks = self._chunks(st, batch, pool.workers)
        st.chunk_fits = {}
        st.chunks_outstanding = len(chunks)
        st.perf.counter("serve.batches").inc()
        st.perf.counter("serve.chunks").inc(len(chunks))
        for idx, chunk in enumerate(chunks):
            pool.submit(st.name, st.seq, idx, chunk)
        return len(chunks)

    def _chunks(self, st: _JobState, batch: list, workers: int) -> list:
        """Cost-adaptive chunking: aim for ``target_chunk_s`` per chunk,
        never fewer chunks than would keep ``workers`` busy, chunk size
        1 until the job has a cost estimate."""
        if st.cost_est is None:
            size = 1
        else:
            size = max(1, int(self.target_chunk_s / max(st.cost_est, 1e-9)))
            # keep at least `workers` chunks in flight when the batch
            # allows it, so a cheap job cannot collapse into one task
            # that serialises the pool
            size = min(size, max(1, len(batch) // workers))
        return [batch[i : i + size] for i in range(0, len(batch), size)]

    def _update_cost(self, st: _JobState, res) -> None:
        if not res.fits or res.elapsed <= 0:
            return
        per_candidate = res.elapsed / len(res.fits)
        if st.cost_est is None:
            st.cost_est = per_candidate
        else:
            st.cost_est = (COST_EWMA * per_candidate
                           + (1.0 - COST_EWMA) * st.cost_est)

    def _emit_batch(self, st: _JobState) -> None:
        """Fire the ``on_batch`` progress hook for one evaluated batch
        (generation counter, evaluation totals, best-so-far fitness,
        perf delta since the last event)."""
        if self.on_batch is None:
            return
        snap = st.perf.snapshot()
        delta = (
            diff_snapshots(snap, st.event_snap)
            if st.event_snap is not None else snap
        )
        st.event_snap = snap
        best = st.engine.population[0][1] if st.engine.population else None
        self.on_batch(st.name, {
            "seq": st.seq,
            "evaluations": st.evaluations,
            "computed_evaluations": st.computed_evaluations,
            "best_fitness": best,
            "perf": delta,
        })

    # -- terminal states --------------------------------------------------
    def _finalize_done(self, st: _JobState) -> None:
        solution, fitness = st.engine.population[0]
        act_params = derive_activation_params(
            solution, st.stats, mode=st.act_sf_mode
        )
        st.handle._resolve(
            LPQResult(
                solution=solution,
                act_params=act_params,
                fitness=fitness,
                history=st.engine.history,
                stats=st.stats,
                evaluations=st.evaluations,
            )
        )
        self._merge_job_perf(st)

    def _finalize_failed(self, st: _JobState, error: str) -> None:
        st.handle._fail(error)
        self._merge_job_perf(st)

    def _finalize_cancelled(self, st: _JobState) -> None:
        st.handle._mark_cancelled()
        self._merge_job_perf(st)

    def _merge_job_perf(self, st: _JobState) -> None:
        """Publish the job's perf snapshot on its handle, fold the
        private registry (engine events + worker deltas) into the
        scheduler's ambient registry exactly once, let the pool drop
        the job's replicas, and drop the job's own state."""
        st.handle._perf = st.perf.snapshot()
        if st.perf is not self.perf:
            self.perf.merge_snapshot(st.handle._perf)
        if self._pool is not None:
            self._pool.release(st.name)
        st.drop()
        if self.on_finished is not None:
            self.on_finished(st.name, st.handle)
