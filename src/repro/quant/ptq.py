"""High-level post-training quantization API.

``lpq_quantize(model, calib_images)`` runs the full LPQ pipeline — layer
statistics, fitness evaluator, genetic search, activation-parameter
derivation — and returns everything needed to deploy or score the result.
The search runs as a one-job :class:`repro.serve.SearchScheduler`, the
same evaluation path as a multi-search fleet and the search daemon.

Both call styles are the same code: the legacy keyword signature is a
thin shim that constructs an (inline) :class:`repro.spec.SearchSpec`,
and ``lpq_quantize(spec=...)`` runs a declarative spec directly —
referencing the model and calibration batch by registry name, so the
identical search can be launched from a JSON file
(``scripts/run_search.py --spec``).  The two paths produce bitwise-
identical :class:`LPQResult`\\ s (``tests/spec/test_shim_equivalence.py``
asserts this on every executor backend).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Module
from ..numerics import LPParams
from .fitness import FitnessConfig
from .genetic import LPQConfig, SearchHistory
from .params import QuantSolution
from .quantizer import LayerStats

__all__ = ["LPQResult", "lpq_quantize"]


@dataclass
class LPQResult:
    """Outcome of an LPQ search."""

    solution: QuantSolution
    act_params: list[LPParams]
    fitness: float
    history: SearchHistory
    stats: LayerStats
    evaluations: int

    @property
    def mean_weight_bits(self) -> float:
        return self.solution.mean_weight_bits()

    @property
    def mean_act_bits(self) -> float:
        return float(np.mean([p.n for p in self.act_params]))

    def model_size_mb(self) -> float:
        return self.solution.model_size_mb(self.stats.param_counts)


def lpq_quantize(
    model: Module | None = None,
    calib_images: np.ndarray | None = None,
    config: LPQConfig | None = None,
    fitness_config: FitnessConfig | None = None,
    objective: str = "global_local_contrastive",
    act_sf_mode: str = "calibrated",
    executor=None,
    *,
    spec=None,
) -> LPQResult:
    """Run LPQ on ``model`` using an unlabelled calibration batch.

    ``objective`` selects the fitness:  the paper's global-local
    contrastive objective by default, or one of the Fig. 5(a) baselines
    ("mse", "kl", "cosine", "global_contrastive").

    ``executor`` (a :class:`repro.parallel.ExecutorConfig`) selects the
    pool the search's one scheduler job runs on — ``serial`` (the
    default, also for ``None``; it scores the caller's model instance
    itself, no copy), ``process`` or ``remote``.  Every backend produces
    a bitwise-identical search trajectory; the knob only changes
    wall-clock.  To quantize *several* models on one shared worker
    pool, see :func:`repro.serve.lpq_quantize_many`.

    A failure inside the search (a model whose forward raises, a
    replica that cannot be built) raises ``RuntimeError`` carrying the
    worker traceback, on every backend — the
    :meth:`repro.serve.SearchHandle.result` of the search's job.
    Invalid arguments still raise ``TypeError``/``ValueError`` up
    front.

    ``spec`` (a :class:`repro.spec.SearchSpec`, mutually exclusive with
    every other argument) runs a declarative search request instead: the
    model and calibration batch are resolved from the spec's registry
    references, and all remaining knobs come from the spec's fields.
    The legacy keyword call constructs exactly such a spec internally,
    so the two styles are the same search bit for bit.

    A complete search on a toy model (real calls shrink only the search
    budget, not the pipeline):

    >>> import numpy as np
    >>> from repro import nn
    >>> from repro.quant import LPQConfig, lpq_quantize
    >>> nn.seed(0)
    >>> model = nn.Sequential(
    ...     nn.Conv2d(3, 4, 3, padding=1, bias=False),
    ...     nn.BatchNorm2d(4), nn.ReLU(),
    ...     nn.GlobalAvgPool(), nn.Linear(4, 4)).eval()
    >>> images = np.random.default_rng(0).normal(
    ...     size=(4, 3, 8, 8)).astype(np.float32)
    >>> result = lpq_quantize(model, images, config=LPQConfig(
    ...     population=3, passes=1, cycles=1, diversity_parents=2,
    ...     hw_widths=(4, 8), seed=5))
    >>> len(result.solution)  # one LPParams per quantizable layer
    2
    >>> bool(np.isfinite(result.fitness))
    True
    >>> result.mean_weight_bits <= 8.0  # hw_widths bounds the search
    True

    The same search as a declarative spec (the model referenced by
    registry name, so this request could have come from a JSON file):

    >>> from repro.spec import CalibSpec, SearchSpec
    >>> spec = SearchSpec(model="tiny:mlp", calib=CalibSpec(batch=4),
    ...                   config=LPQConfig(population=3, passes=1,
    ...                                    cycles=1, diversity_parents=2,
    ...                                    hw_widths=(4, 8), seed=5))
    >>> bool(np.isfinite(lpq_quantize(spec=spec).fitness))
    True
    """
    # deferred import: repro.spec.spec builds on this package
    from ..spec.spec import SearchSpec, reject_spec_conflicts

    if spec is not None:
        if not isinstance(spec, SearchSpec):
            raise TypeError(
                f"spec must be a repro.spec.SearchSpec, got "
                f"{type(spec).__name__}"
            )
        reject_spec_conflicts(
            "lpq_quantize(spec=...)",
            (
                ("model", model),
                ("calib_images", calib_images),
                ("config", config),
                ("fitness_config", fitness_config),
                ("executor", executor),
            ),
            objective=objective,
            act_sf_mode=act_sf_mode,
        )
    else:
        if model is None or calib_images is None:
            raise TypeError(
                "lpq_quantize requires model and calib_images (or a "
                "spec=SearchSpec)"
            )
        # the legacy shim: an *inline* spec around the live objects —
        # same fields, same code path, it just refuses to serialize
        spec = SearchSpec(
            config=config or LPQConfig(),
            fitness=fitness_config,
            objective=objective,
            act_sf_mode=act_sf_mode,
            executor=executor,
        )
    return _run_spec(spec, model=model, calib_images=calib_images)


def _run_spec(
    spec, model: Module | None = None, calib_images: np.ndarray | None = None
) -> LPQResult:
    """The one LPQ implementation behind both call styles: a one-job
    :class:`repro.serve.SearchScheduler` run on ``spec.executor``.

    ``model``/``calib_images`` carry the live objects of an inline
    (legacy-shim) spec.  A serializable spec goes in as itself, so
    process and remote workers receive its compact registry payload.
    """
    # deferred import: repro.serve builds on this package
    from ..serve import SearchScheduler

    scheduler = SearchScheduler(executor=spec.executor)
    name = spec.job_name("lpq_quantize")
    if spec.serializable:
        handle = scheduler.submit(name, spec=spec)
    else:
        handle = scheduler.submit(
            name,
            spec.build_model() if model is None else model,
            spec.build_calib() if calib_images is None else calib_images,
            config=spec.search_config(),
            fitness_config=spec.fitness,
            objective=spec.objective,
            act_sf_mode=spec.act_sf_mode,
        )
    scheduler.run()
    return handle.result()
