"""Search-throughput benchmark: incremental + parallel LPQ engines.

For each benchmark model (a BatchNorm CNN, a ViT analogue, and a Swin
analogue) the *same* genetic search runs several ways:

* ``reference`` — full BN-recalibration pass + full measurement pass per
  candidate (``FitnessConfig.fast`` off);
* ``fast`` — the incremental engine (quantized-weight cache, fused
  recalibration, prefix-reuse forwards);
* one section per executor backend (``serial`` / ``process`` /
  ``remote``) — the incremental engine as a one-job
  :class:`repro.serve.SearchScheduler` run on that backend's pool, the
  path :func:`repro.quant.lpq_quantize` takes, pool start included; the
  remote section measures the full socket transport against a
  localhost worker fleet (or ``addresses`` of an external one).

Every variant must produce a bitwise-identical search trajectory;
``identical`` flags in the emitted record assert the correctness bar of
each path, not just its speed.  The ViT/Swin sections measure what the
prefix-reuse replay is worth on LayerNorm models (no BN, so the win is
the forward prefix), and the ``objective_evaluator`` section measures the
incremental engine on the Fig. 5(a) final-output baselines.

The CNN benchmark model has a *front-loaded* cost profile (constant
channel width, spatial halving), mirroring real CNNs where early
high-resolution layers dominate: the deeper the first changed layer, the
bigger the replayed prefix.

The ``multi_job`` section measures the :mod:`repro.serve` scheduler: two
search jobs run back-to-back (a one-job scheduler on a dedicated pool
each) and then multiplexed onto one shared pool, whole-job wall clock
both ways.  The shared pool must win on aggregate throughput while
every per-job trajectory stays bitwise-identical to its back-to-back
run.

``python scripts/run_search_throughput_bench.py`` emits the record as
``BENCH_search_throughput.json`` so the perf trajectory is tracked
across PRs.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import platform
import time
from pathlib import Path

from .. import nn
from ..data import calibration_batch
from ..nn.tensor import _seeded
from ..spec import registry as spec_registry
from ..spec.blob import reset_blob_store
from ..models.swin import SwinTransformer
from ..models.vit import VisionTransformer
from ..quant import (
    FitnessConfig,
    FitnessEvaluator,
    LPQConfig,
    LPQEngine,
    OutputObjectiveEvaluator,
    collect_layer_stats,
    derive_activation_params,
)
from . import get_perf, reset_perf

__all__ = [
    "BENCH_MODELS",
    "BenchSearchCNN",
    "bench_config",
    "run_search_throughput_bench",
    "write_bench_record",
]

#: default output location (repo root) for the emitted record
DEFAULT_RECORD = "BENCH_search_throughput.json"


class BenchSearchCNN(nn.Module):
    """Thirteen-layer (12 conv + head) BatchNorm CNN, front-loaded compute.

    Channel width stays constant while the spatial resolution halves at
    stage boundaries, so per-layer cost drops ~4× per stage — the first
    stage carries most of the FLOPs, as in real CNNs.  Depth matters for
    the benchmark: the more blocks the search sweeps, the larger the
    average prefix the incremental engine gets to replay.
    """

    def __init__(self, channels: int = 12, num_classes: int = 16) -> None:
        super().__init__()

        def block(cin: int) -> list[nn.Module]:
            return [
                nn.Conv2d(cin, channels, 3, padding=1, bias=False),
                nn.BatchNorm2d(channels),
                nn.ReLU(),
            ]

        self.features = nn.Sequential(
            *block(3), *block(channels), *block(channels),
            nn.MaxPool2d(2),
            *block(channels), *block(channels), *block(channels),
            nn.MaxPool2d(2),
            *block(channels), *block(channels), *block(channels),
            nn.MaxPool2d(2),
            *block(channels), *block(channels), *block(channels),
        )
        self.pool = nn.GlobalAvgPool()
        self.head = nn.Linear(channels, num_classes)

    def forward(self, x):
        return self.head(self.pool(self.features(x)))


def bench_resnet() -> nn.Module:
    """The front-loaded BatchNorm CNN (ResNet-style conv stack)."""
    return BenchSearchCNN()


def bench_vit() -> nn.Module:
    """Small ViT analogue: 4 pre-norm encoder blocks, 18 quantizable
    layers, LayerNorm only (exercises the BN-free replay path)."""
    return VisionTransformer(
        num_classes=16, dim=32, depth=4, num_heads=4, mlp_ratio=2.0
    )


def bench_swin() -> nn.Module:
    """Small Swin analogue: 2 stages with shifted 4×4 windows and patch
    merging, 19 quantizable layers, LayerNorm only."""
    return SwinTransformer(
        num_classes=16, dim=24, depths=(2, 2), num_heads=(2, 4), window=4
    )


#: benchmark model registry — module-level builders so EvaluatorSpec can
#: ship them to process workers by reference
BENCH_MODELS = {
    "resnet": bench_resnet,
    "vit": bench_vit,
    "swin": bench_swin,
}


def _bench_loader(name: str):
    """Spec-registry loader: seeded build, mirroring how the bench and
    the examples instantiate these models (``nn.seed(0)`` then build)."""

    def load() -> nn.Module:
        builder = BENCH_MODELS[name]
        with _seeded(0):
            model = builder()
        model.eval()
        # lets repro.spec.wire name this instance by builder reference
        model.wire_builder = (builder.__module__, builder.__qualname__)
        return model

    load.__name__ = f"load_bench_{name}"
    return load


for _name in BENCH_MODELS:
    spec_registry.register("model", f"bench:{_name}", _bench_loader(_name))


def bench_config(seed: int = 0) -> LPQConfig:
    """Fast-effort search budget used by the throughput benchmark.

    ``diversity_parents`` keeps the paper's default of five so every GA
    step submits a six-candidate batch — enough per-step parallelism for
    a two-worker fan-out to approach its 2× ceiling.
    """
    return LPQConfig(
        population=4,
        passes=2,
        cycles=1,
        block_size=3,
        diversity_parents=5,
        hw_widths=(2, 4, 8),
        seed=seed,
    )


def _prepare(model_name: str, calib: int, seed: int):
    """Freshly seeded model + calibration batch + layer stats."""
    with _seeded(seed):  # identical weights across all modes
        model = BENCH_MODELS[model_name]()
    model.eval()
    images = calibration_batch(calib, seed=seed + 1)
    stats = collect_layer_stats(model, images)
    return model, images, stats


def _measurements(run) -> dict:
    """Time one search and collect the standard per-run section.

    ``run()`` performs the search and returns ``(solution, fitness,
    history, evaluations, computed_evaluations)``.
    """
    start = time.perf_counter()
    solution, fitness, history, evaluations, computed = run()
    wall = time.perf_counter() - start
    snapshot = get_perf().snapshot()
    return {
        "wall_s": wall,
        "evaluations": evaluations,
        "computed_evaluations": computed,
        "evals_per_s": evaluations / wall if wall > 0 else 0.0,
        "best_fitness": fitness,
        "mean_bits": solution.mean_weight_bits(),
        "cache_evictions": {
            name: stats["evictions"]
            for name, stats in snapshot["caches"].items()
            if stats["evictions"]
        },
        "perf": snapshot,
        "history": list(history.best_fitness),
    }


def _transport_counters(snapshot: dict) -> dict:
    """The transport/blob view of one perf snapshot: bytes the run
    actually shipped, bytes content addressing displaced, and the
    client-side blob dedupe stats (a *hit* is an array that never went
    on the wire again)."""
    counters = snapshot.get("counters", {})
    blob = snapshot.get("caches", {}).get(
        "blob", {"hits": 0, "misses": 0, "evictions": 0}
    )
    return {
        "bytes_sent": counters.get("transport.bytes_sent", 0),
        "bytes_saved": counters.get("transport.bytes_saved", 0),
        "blob": {"hits": blob["hits"], "misses": blob["misses"]},
        # remote workers refused for other numerics; 0 on a fleet that
        # reproduces this process's bits
        "fingerprint_mismatch": counters.get(
            "remote.fingerprint_mismatch", 0
        ),
        # every fault-recovery action the run took (retries, requeues,
        # rejoins, fallbacks, checksum rejects, ...); all zero on a
        # healthy fleet
        "fault": {
            name[len("fault."):]: value
            for name, value in sorted(counters.items())
            if name.startswith("fault.")
        },
    }


def _run_search(
    model_name: str,
    fast: bool,
    calib: int,
    config: LPQConfig,
    seed: int,
    objective: str | None = None,
) -> dict:
    """One full search on the single-evaluator path.

    ``objective=None`` uses the paper's :class:`FitnessEvaluator`; an
    objective name runs the same search through the Fig. 5(a)
    :class:`OutputObjectiveEvaluator` instead.
    """
    model, images, stats = _prepare(model_name, calib, seed)
    reset_perf()
    if objective is None:
        evaluator = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=fast)
        )
    else:
        evaluator = OutputObjectiveEvaluator(
            model, images, stats.param_counts, objective,
            FitnessConfig(fast=fast),
        )

    def evaluate(solution):
        acts = derive_activation_params(solution, stats)
        return evaluator(solution, acts)

    engine = LPQEngine(evaluate, stats.weight_log_centers, config)

    def run():
        solution, fitness = engine.run()
        return (solution, fitness, engine.history, evaluator.evaluations,
                evaluator.computed_evaluations)

    return _measurements(run)


@contextlib.contextmanager
def _executor_context(
    backend: str, workers: int | None, addresses=None
):
    """The leg's :class:`~repro.parallel.ExecutorConfig`.

    For ``backend="remote"`` with no addresses given, an in-process
    localhost worker fleet (:func:`repro.serve.remote.local_worker_fleet`,
    ``workers`` servers, default 2) lives for the duration of the leg —
    so ``--backend remote`` benches the full socket transport with no
    external setup, and a real multi-host fleet is one ``--addresses``
    flag away.
    """
    from ..parallel import ExecutorConfig

    if backend != "remote":
        yield ExecutorConfig(backend=backend, workers=workers)
    elif addresses:
        yield ExecutorConfig("remote", addresses=addresses)
    else:
        from ..serve.remote import local_worker_fleet

        with local_worker_fleet(workers or 2) as fleet:
            yield ExecutorConfig("remote", addresses=fleet)


def _one_job_search(executor, model_name: str, prepared, config):
    """One full search as a one-job :class:`repro.serve.SearchScheduler`
    run on ``executor`` — the path :func:`repro.quant.lpq_quantize`
    takes.  Returns the :class:`~repro.quant.LPQResult` and the number
    of candidates the pool computed."""
    from ..serve import SearchScheduler

    model, images, stats = prepared
    scheduler = SearchScheduler(executor=executor)
    handle = scheduler.submit(
        model_name,
        calib_images=images,
        builder=BENCH_MODELS[model_name],
        state=model.state_dict(),
        config=config,
        fitness_config=FitnessConfig(fast=True),
        stats=stats,
    )
    scheduler.run()
    job = scheduler.stats()["jobs"][model_name]
    return handle.result(), job["computed_evaluations"]


def _run_search_backend(
    model_name: str,
    backend: str,
    workers: int | None,
    calib: int,
    config: LPQConfig,
    seed: int,
    addresses=None,
    executor_config=None,
    reset_blobs: bool = True,
) -> dict:
    """One full search on one executor backend, pool start included.

    ``executor_config`` reuses a live :class:`~repro.parallel.
    ExecutorConfig` (e.g. one pointed at a still-running worker fleet)
    instead of opening a fresh one — the warm leg of the transport
    comparison.  ``reset_blobs=False`` likewise keeps the process-global
    :class:`~repro.spec.blob.BlobStore` so content addressing answers
    from cache; the default resets it for an honest cold measurement.
    """
    prepared = _prepare(model_name, calib, seed)
    reset_perf()
    if reset_blobs:
        reset_blob_store()
    with contextlib.ExitStack() as stack:
        executor = executor_config
        if executor is None:
            executor = stack.enter_context(
                _executor_context(backend, workers, addresses)
            )

        def run():
            result, computed = _one_job_search(
                executor, model_name, prepared, config
            )
            return (result.solution, result.fitness, result.history,
                    result.evaluations, computed)

        rec = _measurements(run)
    rec["workers"] = (
        1 if executor.backend == "serial" else executor.resolved_workers()
    )
    rec["transport"] = _transport_counters(rec["perf"])
    return rec


def _strip_history(*records: dict) -> None:
    for rec in records:
        rec.pop("history", None)  # bulky; equality already distilled


def _multi_job_plan(
    model_names: tuple[str, ...], config: LPQConfig
) -> list[tuple[str, str, LPQConfig]]:
    """(job name, bench model, search config) triples for the multi-job
    comparison: the first two models when available, otherwise the same
    model twice under different search seeds (still two distinct jobs)."""
    from dataclasses import replace

    if len(model_names) >= 2:
        return [(name, name, config) for name in model_names[:2]]
    name = model_names[0]
    return [
        (f"{name}-a", name, config),
        (f"{name}-b", name, replace(config, seed=config.seed + 1)),
    ]


def _multi_job_section(
    model_names: tuple[str, ...],
    backend: str,
    workers: int | None,
    calib: int,
    config: LPQConfig,
    seed: int,
    addresses=None,
) -> dict:
    """Same jobs run back-to-back (a one-job scheduler on its own pool
    each) vs multiplexed on one shared pool by one
    :class:`repro.serve.SearchScheduler`.

    Both legs time the *whole* job — pool startup included — because
    that is what running a fleet actually costs; per-job trajectories
    must stay bitwise-identical either way.
    """
    from ..serve import SearchScheduler

    jobs = _multi_job_plan(model_names, config)

    # -- back-to-back: one dedicated pool per job ------------------------
    sequential: dict = {}
    sequential_wall = 0.0
    for job_name, model_name, job_config in jobs:
        prepared = _prepare(model_name, calib, seed)
        reset_perf()
        start = time.perf_counter()
        with _executor_context(backend, workers, addresses) as executor:
            result, _ = _one_job_search(
                executor, model_name, prepared, job_config
            )
        wall = time.perf_counter() - start
        sequential_wall += wall
        sequential[job_name] = {"wall_s": wall, "result": result}

    # -- scheduler: all jobs multiplexed on one shared pool --------------
    prepared = [
        (job_name, model_name, job_config, _prepare(model_name, calib, seed))
        for job_name, model_name, job_config in jobs
    ]
    reset_perf()
    start = time.perf_counter()
    stack = contextlib.ExitStack()
    scheduler = SearchScheduler(
        executor=stack.enter_context(
            _executor_context(backend, workers, addresses)
        )
    )
    for job_name, model_name, job_config, (model, images, stats) in prepared:
        scheduler.submit(
            job_name,
            calib_images=images,
            builder=BENCH_MODELS[model_name],
            state=model.state_dict(),
            config=job_config,
            fitness_config=FitnessConfig(fast=True),
            stats=stats,
        )
    try:
        results = scheduler.run()
    finally:
        stack.close()  # remote leg: stop the local worker fleet
    scheduler_wall = time.perf_counter() - start

    identical = True
    section_jobs: dict = {}
    total_evals = 0
    for job_name, model_name, _ in jobs:
        seq = sequential[job_name]
        ref, res = seq["result"], results[job_name]
        job_identical = (
            res.fitness == ref.fitness
            and res.history.best_fitness == ref.history.best_fitness
            and res.solution == ref.solution
            and res.evaluations == ref.evaluations
        )
        identical = identical and job_identical
        total_evals += res.evaluations
        section_jobs[job_name] = {
            "model": model_name,
            "sequential_wall_s": seq["wall_s"],
            "best_fitness": res.fitness,
            "mean_bits": res.mean_weight_bits,
            "evaluations": res.evaluations,
            "identical": job_identical,
        }
    return {
        "backend": backend,
        "jobs": section_jobs,
        "sequential_wall_s": sequential_wall,
        "scheduler_wall_s": scheduler_wall,
        "speedup": (
            sequential_wall / scheduler_wall if scheduler_wall > 0 else 0.0
        ),
        "evaluations": total_evals,
        "aggregate_evals_per_s": {
            "sequential": (
                total_evals / sequential_wall if sequential_wall > 0 else 0.0
            ),
            "scheduler": (
                total_evals / scheduler_wall if scheduler_wall > 0 else 0.0
            ),
        },
        "identical": identical,
    }


def _transport_section(
    model_name: str,
    backends: tuple[str, ...],
    workers: int | None,
    calib: int,
    config: LPQConfig,
    seed: int,
    fast: dict,
    addresses=None,
) -> dict:
    """Cold vs warm-fleet transport comparison, one entry per backend.

    Each backend runs the same search twice against ONE executor context
    (for ``remote`` that means one long-lived worker fleet).  The cold
    run starts from an empty :class:`~repro.spec.blob.BlobStore`; the
    warm run keeps it, so every tensor the search needs is already
    content-addressed — published shared-memory segments are reused and
    remote workers answer ``{"blob": ...}`` refs from their own caches
    instead of being sent the bytes again.  The warm run must show
    ``blob.hits > 0``, a *lower* ``transport.bytes_sent``, and a search
    trajectory still bitwise-identical to the serial ``fast`` run.
    """
    section: dict = {}
    for backend in backends:
        runs: dict = {}
        with _executor_context(backend, workers, addresses) as executor:
            for phase, reset in (("cold", True), ("warm", False)):
                rec = _run_search_backend(
                    model_name, backend, workers, calib, config, seed,
                    executor_config=executor, reset_blobs=reset,
                )
                runs[phase] = {
                    **rec["transport"],
                    "wall_s": rec["wall_s"],
                    "identical": (
                        rec["best_fitness"] == fast["best_fitness"]
                        and rec["history"] == fast["history"]
                    ),
                }
        cold, warm = runs["cold"], runs["warm"]
        section[backend] = {
            "model": model_name,
            "cold": cold,
            "warm": warm,
            "warm_bytes_ratio": (
                warm["bytes_sent"] / cold["bytes_sent"]
                if cold["bytes_sent"]
                else 0.0
            ),
            "identical": cold["identical"] and warm["identical"],
        }
    return section


def _chaos_section(
    model_name: str,
    calib: int,
    config: LPQConfig,
    seed: int,
    plans,
) -> dict:
    """The chaos soak as a bench section: one remote search per
    committed fault plan, each against a :class:`~repro.serve.chaos.
    ChaosFleet` misbehaving on that plan's schedule.

    Every entry must report ``identical: true`` (faults cannot move a
    bit) and nonzero values for the plan's expected ``fault.*``
    counters (``counters_ok``) — a fault that silently stopped firing
    would otherwise let the recovery machinery rot unexercised.
    """
    from ..parallel import ExecutorConfig
    from ..serve.chaos import COMMITTED_PLANS, ChaosFleet

    fast = _run_search(model_name, True, calib, config, seed)
    section: dict = {}
    for name in plans:
        scenario = COMMITTED_PLANS[name]
        with ChaosFleet(scenario.plan, count=scenario.count) as addresses:
            executor = ExecutorConfig(
                "remote", addresses=addresses, retry=scenario.retry,
                on_fleet_death=scenario.on_fleet_death,
            )
            rec = _run_search_backend(
                model_name, "remote", None, calib, config, seed,
                executor_config=executor,
            )
        fault = rec["transport"]["fault"]
        expected = [c[len("fault."):] for c in scenario.expect]
        section[name] = {
            "model": model_name,
            "workers": scenario.count,
            "wall_s": rec["wall_s"],
            "fault": fault,
            "expected_counters": expected,
            "counters_ok": all(fault.get(c, 0) > 0 for c in expected),
            "identical": (
                rec["best_fitness"] == fast["best_fitness"]
                and rec["history"] == fast["history"]
            ),
        }
    return section


def _model_section(
    model_name: str,
    calib: int,
    config: LPQConfig,
    seed: int,
    backends: tuple[str, ...],
    workers: int | None,
    addresses=None,
    include_transport: bool = False,
) -> dict:
    reference = _run_search(model_name, False, calib, config, seed)
    fast = _run_search(model_name, True, calib, config, seed)
    section = {
        "reference": reference,
        "fast": fast,
        "speedup": (
            reference["wall_s"] / fast["wall_s"] if fast["wall_s"] > 0 else 0.0
        ),
        "identical": (
            reference["best_fitness"] == fast["best_fitness"]
            and reference["history"] == fast["history"]
        ),
        "backends": {},
    }
    for backend in backends:
        rec = _run_search_backend(
            model_name, backend, workers, calib, config, seed, addresses
        )
        rec["identical"] = (
            rec["best_fitness"] == fast["best_fitness"]
            and rec["history"] == fast["history"]
        )
        rec["speedup_vs_fast"] = (
            rec["evals_per_s"] / fast["evals_per_s"]
            if fast["evals_per_s"] > 0
            else 0.0
        )
        _strip_history(rec)
        section["backends"][backend] = rec
    if include_transport:
        section["transport"] = _transport_section(
            model_name, backends, workers, calib, config, seed, fast,
            addresses,
        )
    _strip_history(reference, fast)
    return section


def _blas_section() -> dict:
    """The BLAS numpy was built against, this process's BLAS thread
    count, the count a process-pool worker runs with (``None`` where
    the BLAS is not OpenBLAS), and the numerics fingerprint: records
    compare only where it matches."""
    import numpy

    from ..parallel._blas import blas_threads
    from ..parallel._fingerprint import numerics_fingerprint
    from ..parallel.executor import _init_shared_worker

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    # the default start method, as the process backend uses: under fork
    # the worker inherits this process's count and must still read 1
    with multiprocessing.get_context().Pool(
        1, initializer=_init_shared_worker, initargs=({},)
    ) as pool:
        worker_threads = pool.apply(blas_threads)
    return {
        "blas": blas,
        "blas_threads": blas_threads(),
        "worker_blas_threads": worker_threads,
        "fingerprint": numerics_fingerprint(),
    }


def run_search_throughput_bench(
    calib: int = 16,
    config: LPQConfig | None = None,
    seed: int = 0,
    models: tuple[str, ...] = ("resnet", "vit", "swin"),
    backends: tuple[str, ...] = ("serial", "process"),
    workers: int | None = None,
    objective: str = "mse",
    include_objective: bool = True,
    include_multi_job: bool = True,
    include_transport: bool = True,
    addresses=None,
    chaos_plans=None,
) -> dict:
    """Benchmark record: per-model reference/fast/backend search runs.

    ``backends`` may include ``"remote"``: with no ``addresses`` the
    remote legs run against an in-process localhost worker fleet
    (``workers`` servers), measuring the full socket transport;
    ``addresses`` points them at an external fleet instead.

    ``workers=None`` lets the executor use every CPU.  The returned
    record keeps the PR-1 top-level ``reference``/``fast``/``speedup``/
    ``identical`` fields (mirroring the first model) so the perf
    trajectory across PRs stays comparable.

    ``include_multi_job`` adds the ``multi_job`` section: two search
    jobs run back-to-back on dedicated pools vs multiplexed on one
    shared pool by the :class:`repro.serve.SearchScheduler`, using the
    first non-serial backend (pool startup amortisation plus batch
    interleaving should put the shared-pool aggregate throughput above
    back-to-back; trajectories must stay bitwise-identical).

    ``include_transport`` adds the top-level ``transport`` section: per
    backend, the same search run cold (empty blob store, fresh fleet
    caches) and then warm against the *same* fleet — the warm run must
    report ``blob.hits > 0``, a reduced ``transport.bytes_sent``, and
    ``identical: true`` (see :func:`_transport_section`).

    ``chaos_plans`` (a tuple of :data:`repro.serve.chaos.
    COMMITTED_PLANS` names) adds the ``chaos`` section: the first model
    searched against a deliberately misbehaving fleet, one entry per
    fault plan, each asserting bitwise identity plus the expected
    nonzero ``fault.*`` recovery counters (see :func:`_chaos_section`).
    """
    config = config or bench_config(seed)
    record: dict = {
        "benchmark": "search_throughput",
        "cpu": {
            "count": os.cpu_count(),
            "machine": platform.machine(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            **_blas_section(),
        },
        "config": {
            "population": config.population,
            "passes": config.passes,
            "cycles": config.cycles,
            "block_size": config.block_size,
            "diversity_parents": config.diversity_parents,
            "hw_widths": list(config.hw_widths or []),
            "seed": config.seed,
        },
        "calib": calib,
        "models": {},
    }
    for model_name in models:
        record["models"][model_name] = _model_section(
            model_name, calib, config, seed, backends, workers, addresses,
            include_transport=include_transport and model_name == models[0],
        )
    if include_transport:
        record["transport"] = record["models"][models[0]].pop("transport")
    if chaos_plans:
        record["chaos"] = _chaos_section(
            models[0], calib, config, seed, tuple(chaos_plans)
        )
    # worker counts each pool *actually* used (the serial pool is
    # always 1 regardless of --workers); identical across models
    first_backends = record["models"][models[0]]["backends"]
    record["workers"] = {
        backend: rec["workers"] for backend, rec in first_backends.items()
    }
    if include_objective:
        obj_ref = _run_search(
            models[0], False, calib, config, seed, objective=objective
        )
        obj_fast = _run_search(
            models[0], True, calib, config, seed, objective=objective
        )
        record["objective_evaluator"] = {
            "model": models[0],
            "objective": objective,
            "reference": obj_ref,
            "fast": obj_fast,
            "speedup": (
                obj_ref["wall_s"] / obj_fast["wall_s"]
                if obj_fast["wall_s"] > 0
                else 0.0
            ),
            "identical": (
                obj_ref["best_fitness"] == obj_fast["best_fitness"]
                and obj_ref["history"] == obj_fast["history"]
            ),
        }
        _strip_history(obj_ref, obj_fast)
    if include_multi_job:
        multi_backend = next(
            (b for b in backends if b != "serial"), backends[0]
        )
        record["multi_job"] = _multi_job_section(
            models, multi_backend, workers, calib, config, seed, addresses
        )
    # legacy top-level mirror of the first model's serial comparison
    first = record["models"][models[0]]
    record["model"] = f"{models[0]} / {calib} calib images"
    record["reference"] = first["reference"]
    record["fast"] = first["fast"]
    record["speedup"] = first["speedup"]
    record["identical"] = first["identical"]
    return record


def write_bench_record(record: dict, path: str | Path | None = None) -> Path:
    """Write the record next to the repo root (BENCH_search_throughput.json)."""
    if path is None:
        path = Path(__file__).resolve().parents[3] / DEFAULT_RECORD
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
