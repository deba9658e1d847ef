"""Evaluator replicas and the batched population evaluator.

The parallel population engine never shares a live evaluator between
workers — the incremental engine mutates its model in place (installed
fake-quantization, BN statistics windows), so every worker owns a full
*replica*: its own model copy, calibration state, and worker-local
caches (:class:`~repro.quant.quantizer.WeightQuantCache`,
:class:`repro.nn.ForwardCache`).

:class:`EvaluatorSpec` is the picklable recipe a replica is built from:
a model source (a picklable builder callable, an optional state dict,
or a model instance — models at rest are plain numpy containers and
pickle fine), the calibration batch, layer statistics, and the fitness
configuration.  Workers rebuild byte-identical evaluators from it, so
every backend produces bitwise-identical fitness values.

:class:`PopulationEvaluator` is a callable with ``evaluate_many`` that
dedupes candidates against a population-level memo and fans the rest
out through an executor backend, returning results in submission order.
Searches do not run on it: :func:`repro.quant.lpq_quantize` is a
one-job :class:`repro.serve.SearchScheduler`, whose shared pools do the
same work without a memo: no search proposes a candidate twice.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..nn import Module
from ..nn.tensor import _INIT_LOCK
from ..perf import get_perf
from ..quant import (  # lint: disable=registry-bypass -- EvaluatorSpec.build is the registered construction path; the objective registry carries labels, not classes
    FitnessConfig,
    FitnessEvaluator,
    LayerStats,
    OutputObjectiveEvaluator,
    QuantSolution,
    collect_layer_stats,
    derive_activation_params,
)

__all__ = ["EvaluatorSpec", "EvaluatorReplica", "PopulationEvaluator"]


@dataclass
class EvaluatorSpec:
    """Picklable recipe for building worker-local evaluator replicas.

    Exactly one model source is required: ``builder`` (a picklable
    callable — a module-level function or class — optionally combined
    with ``state`` to load trained weights) or ``model`` (an instance;
    pickled/copied wholesale for workers).

    ``objective`` selects the evaluator: ``None`` builds the paper's
    :class:`FitnessEvaluator`, a Fig. 5(a) objective name builds an
    :class:`OutputObjectiveEvaluator`.  ``act_mode`` is the activation
    scale-factor derivation mode (``None`` disables activation
    quantization entirely).  ``stats`` avoids re-running the calibration
    pass in every worker; when omitted each replica recollects it
    (deterministic, just slower).
    """

    images: np.ndarray
    builder: Callable[[], Module] | None = None
    state: dict[str, np.ndarray] | None = None
    model: Module | None = None
    config: FitnessConfig | None = field(default_factory=FitnessConfig)
    objective: str | None = None
    act_mode: str | None = "calibrated"
    stats: LayerStats | None = None

    def __post_init__(self) -> None:
        if (self.builder is None) == (self.model is None):
            raise ValueError(
                "exactly one of builder or model must be provided"
            )

    def _model(self, copy_model: bool = False) -> Module:
        """The eval-mode model a replica scores (see :meth:`build`)."""
        if self.builder is not None:
            with _INIT_LOCK:  # its draws must not land inside a seeded build
                model = self.builder()
        else:
            model = copy.deepcopy(self.model) if copy_model else self.model
        if self.state is not None:
            model.load_state_dict(self.state)
        model.eval()
        return model

    def build(self, perf=None, copy_model: bool = False) -> "EvaluatorReplica":
        """Construct a replica; ``copy_model=True`` deep-copies a model
        instance so the replica can mutate it independently (builders
        always produce a fresh model)."""
        model = self._model(copy_model)
        stats = self.stats
        if stats is None:
            stats = collect_layer_stats(model, self.images)
        config = self.config or FitnessConfig()
        if self.objective is None:
            evaluator = FitnessEvaluator(
                model, self.images, stats.param_counts, config, perf=perf
            )
        else:
            evaluator = OutputObjectiveEvaluator(
                model, self.images, stats.param_counts, self.objective,
                config, perf=perf,
            )
        return EvaluatorReplica(evaluator, stats, self.act_mode)


class EvaluatorReplica:
    """One worker's evaluator: model copy + calibration state + caches.

    Candidates are scored in their deployed configuration — activation
    parameters are derived deterministically from the weight parameters
    (Section 4), so a solution alone fully specifies the evaluation and
    replicas need no shared state.
    """

    def __init__(
        self, evaluator, stats: LayerStats, act_mode: str | None
    ) -> None:
        self.evaluator = evaluator
        self.stats = stats
        self.act_mode = act_mode

    def _act_params(self, solution: QuantSolution):
        if self.act_mode is None:
            return None
        return derive_activation_params(
            solution, self.stats, mode=self.act_mode
        )

    def evaluate(self, solution: QuantSolution) -> float:
        return self.evaluator(solution, self._act_params(solution))

    def evaluate_many(self, solutions) -> list[float]:
        """Score a batch through the evaluator's vectorized batch path
        (stacked weight-cache prefill + the usual incremental per-
        candidate pass — bitwise identical to :meth:`evaluate` calls)."""
        solutions = list(solutions)
        acts_list = [self._act_params(sol) for sol in solutions]
        return self.evaluator.evaluate_many(solutions, acts_list)


class PopulationEvaluator:
    """Batched candidate evaluation across an executor backend.

    The GA engine submits whole population slices through
    ``evaluate_many``; duplicates (common under crossover) are deduped
    against a population-level memo before any work is fanned out, and
    results come back in submission order regardless of which worker
    finished first.  ``__call__`` keeps the single-candidate evaluator
    interface working.

    Use as a context manager (or call :meth:`close`) to shut worker
    pools down deterministically.
    """

    def __init__(self, spec: EvaluatorSpec, executor=None, perf=None) -> None:
        from .executor import ExecutorConfig, make_executor

        self.spec = spec
        self.executor_config = executor or ExecutorConfig()
        self.perf = perf if perf is not None else get_perf()
        self._executor = make_executor(spec, self.executor_config, self.perf)
        self._memo: dict[QuantSolution, float] = {}
        #: evaluations requested (memo hits included)
        self.evaluations = 0
        #: evaluations submitted to a worker (memo misses)
        self.computed_evaluations = 0

    @property
    def backend(self) -> str:
        return self.executor_config.backend

    @property
    def workers(self) -> int:
        return self._executor.workers

    def __call__(self, solution: QuantSolution, act_params=None) -> float:
        if act_params is not None:
            raise ValueError(
                "PopulationEvaluator derives activation parameters from its "
                "spec; pass act_mode there instead of per-call act_params"
            )
        return self.evaluate_many([solution])[0]

    def evaluate_many(self, solutions) -> list[float]:
        memo_stats = self.perf.cache("population.memo")
        unique: list[QuantSolution] = []
        seen: set[QuantSolution] = set()
        for sol in solutions:
            if sol in self._memo or sol in seen:
                memo_stats.hit()
            else:
                memo_stats.miss()
                seen.add(sol)
                unique.append(sol)
        if unique:
            with self.perf.timer("population.evaluate_batch").time():
                fits = self._executor.evaluate_batch(unique)
            for sol, fit in zip(unique, fits):
                self._memo[sol] = fit
            self.computed_evaluations += len(unique)
        self.evaluations += len(solutions)
        return [self._memo[sol] for sol in solutions]

    def close(self) -> None:
        self._executor.close()

    def __enter__(self) -> "PopulationEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
