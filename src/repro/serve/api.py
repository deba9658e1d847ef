"""One-call multi-model quantization on a shared executor pool.

:func:`lpq_quantize_many` is to a model fleet what
:func:`repro.quant.lpq_quantize` is to one model: the paper's Table 1 /
Fig. 5 sweeps quantize ResNets, MobileNets, ViTs, and Swins with the
same recipe, and running those searches through one
:class:`~repro.serve.SearchScheduler` lets them share a single worker
pool instead of spinning one up per model.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..quant import LPQConfig, LPQResult
from .scheduler import _DEFAULT_OBJECTIVE, SearchScheduler

__all__ = ["lpq_quantize_many"]


def _per_job(value, name: str):
    """Resolve a possibly per-job parameter: a mapping keyed by job name
    selects per job (and must cover every job), anything else applies
    to every job."""
    if isinstance(value, Mapping):
        if name not in value:
            raise KeyError(
                f"per-job mapping has no entry for job {name!r} "
                f"(keys: {sorted(value)})"
            )
        return value[name]
    return value


def _as_spec_jobs(models) -> dict | None:
    """``{name: SearchSpec}`` when ``models`` is declarative, else None.

    Declarative inputs are a mapping of names to
    :class:`~repro.spec.SearchSpec` values or a plain iterable of specs
    (named by each spec's ``name`` field, falling back to ``job0``,
    ``job1``, …).
    """
    from ..spec.spec import SearchSpec

    values = list(models.values()) if isinstance(models, Mapping) else models
    spec_count = sum(isinstance(v, SearchSpec) for v in values)
    if spec_count and spec_count != len(values):
        raise ValueError(
            "lpq_quantize_many cannot mix SearchSpecs and live models "
            f"in one fleet ({spec_count} of {len(values)} jobs are "
            "specs); submit all-specs or all-models"
        )
    if not values or not spec_count:
        return None
    if isinstance(models, Mapping):
        return dict(models)
    items = models
    jobs: dict[str, SearchSpec] = {}
    for i, spec in enumerate(items):
        name = spec.job_name(f"job{i}")
        if name in jobs:
            raise ValueError(f"duplicate spec job name {name!r}")
        jobs[name] = spec
    return jobs


def lpq_quantize_many(
    models,
    calib_images=None,
    config: LPQConfig | Mapping | None = None,
    fitness_config=None,
    objective=_DEFAULT_OBJECTIVE,
    act_sf_mode: str = "calibrated",
    executor=None,
    target_chunk_s: float = 0.25,
    max_active_jobs: int | None = None,
) -> dict[str, LPQResult]:
    """Run one LPQ search per model, multiplexed on a shared pool.

    ``models`` maps job names to model instances (a plain iterable of
    models gets ``job0``, ``job1``, … names).  ``calib_images``,
    ``config``, ``fitness_config``, and ``objective`` may each be a
    single value applied to every job or a mapping keyed by job name
    (a mapping must have an entry for every job — partial maps raise
    ``KeyError`` rather than silently falling back to defaults).
    ``executor`` is the usual :class:`~repro.parallel.ExecutorConfig`;
    all jobs share the one pool it describes.  ``max_active_jobs``
    (default: no bound) runs at most that many jobs at once, which
    bounds the pool workers' memory on a long fleet.  Every per-job
    result is bitwise-identical to a standalone
    :func:`repro.quant.lpq_quantize` call with the same arguments.

    Declarative alternative: pass a list of
    :class:`~repro.spec.SearchSpec` values (or a ``{name: spec}``
    mapping) as ``models`` and nothing else — each spec fully describes
    its own search, and jobs cross the process-pool boundary as the
    specs' plain-JSON payloads.  When no ``executor`` is given, the
    fleet uses the executor the specs agree on (specs that disagree
    raise ``ValueError``).

    Raises ``RuntimeError`` listing the failed jobs if any search
    failed; use a :class:`~repro.serve.SearchScheduler` directly for
    per-job failure handling.

    >>> import numpy as np
    >>> from repro import nn
    >>> from repro.quant import LPQConfig, lpq_quantize
    >>> from repro.serve import lpq_quantize_many
    >>> nn.seed(0)
    >>> def tiny():
    ...     return nn.Sequential(
    ...         nn.Conv2d(3, 4, 3, padding=1, bias=False),
    ...         nn.BatchNorm2d(4), nn.ReLU(),
    ...         nn.GlobalAvgPool(), nn.Linear(4, 4))
    >>> a, b = tiny().eval(), tiny().eval()
    >>> images = np.random.default_rng(0).normal(
    ...     size=(4, 3, 8, 8)).astype(np.float32)
    >>> config = LPQConfig(population=3, passes=1, cycles=1,
    ...                    diversity_parents=2, hw_widths=(4, 8), seed=3)
    >>> results = lpq_quantize_many({"a": a, "b": b}, images, config=config)
    >>> sorted(results)
    ['a', 'b']
    >>> results["a"].solution == lpq_quantize(a, images, config=config).solution
    True

    The declarative form of the same fleet (models by registry name):

    >>> from repro.spec import CalibSpec, SearchSpec
    >>> specs = [
    ...     SearchSpec(model="tiny:mlp", calib=CalibSpec(batch=4),
    ...                config=config, name="mlp"),
    ...     SearchSpec(model="tiny:mlp", calib=CalibSpec(batch=4),
    ...                config=config, seed=9, name="mlp-reseeded"),
    ... ]
    >>> sorted(lpq_quantize_many(specs))
    ['mlp', 'mlp-reseeded']
    """
    if not isinstance(models, Mapping):
        models = list(models)
    spec_jobs = _as_spec_jobs(models)
    if spec_jobs is not None:
        from ..spec.spec import reject_spec_conflicts

        reject_spec_conflicts(
            "lpq_quantize_many(specs)",
            (
                ("calib_images", calib_images),
                ("config", config),
                ("fitness_config", fitness_config),
            ),
            objective=objective,
            act_sf_mode=act_sf_mode,
        )
        if executor is None:
            carried = {
                name: spec.executor
                for name, spec in spec_jobs.items()
                if spec.executor is not None
            }
            if len({str(c.to_dict()) for c in carried.values()}) > 1:
                raise ValueError(
                    "specs carry conflicting executor configs "
                    f"({sorted(carried)}); pass executor= explicitly"
                )
            executor = next(iter(carried.values()), None)
        scheduler = SearchScheduler(
            executor=executor, target_chunk_s=target_chunk_s,
            max_active_jobs=max_active_jobs,
        )
        for name, spec in spec_jobs.items():
            scheduler.submit(name, spec=spec)
        results = scheduler.run()
        return _collect(scheduler, results)
    if calib_images is None:
        raise TypeError(
            "lpq_quantize_many requires calib_images (or a fleet of "
            "SearchSpecs)"
        )
    if isinstance(models, Mapping):
        jobs = dict(models)
    else:
        jobs = {f"job{i}": model for i, model in enumerate(models)}
    scheduler = SearchScheduler(
        executor=executor, target_chunk_s=target_chunk_s,
        max_active_jobs=max_active_jobs,
    )
    for name, model in jobs.items():
        scheduler.submit(
            name,
            model,
            _per_job(calib_images, name),
            config=_per_job(config, name),
            fitness_config=_per_job(fitness_config, name),
            objective=_per_job(objective, name),
            act_sf_mode=act_sf_mode,
        )
    results = scheduler.run()
    return _collect(scheduler, results)


def _collect(
    scheduler: SearchScheduler, results: dict[str, LPQResult]
) -> dict[str, LPQResult]:
    """Raise on any failed job; otherwise return the result map."""
    failed = [
        name for name, handle in scheduler.handles.items() if handle.failed
    ]
    if failed:
        details = "\n".join(
            f"--- {name}:\n{scheduler.handles[name].error}" for name in failed
        )
        raise RuntimeError(
            f"{len(failed)} search job(s) failed: {failed}\n{details}"
        )
    return results
