"""Baseline quantization objectives compared in Fig. 5(a).

All baselines are *global* losses on the final model output; the paper
shows they either overfit the calibration set (MSE, KL) or miss the
representational collapse of intermediate layers (global contrastive).
Each evaluator shares the interface of
:class:`repro.quant.fitness.FitnessEvaluator` so the GA engine can swap
objectives for the convergence experiment — including the incremental
fast path (quantized-weight cache, prefix-reuse forward
replay, fused BN recalibration): a Fig. 5(a) baseline sweep no
longer pays the full reference-path cost per candidate.
"""

from __future__ import annotations

import numpy as np

from ..nn import Module, softmax
from ..spec import registry as spec_registry
from .engine import FitnessConfig, IncrementalEvaluator
from .fitness import contrastive_objective

__all__ = ["OutputObjectiveEvaluator", "OBJECTIVES"]


def _mse(q: np.ndarray, fp: np.ndarray) -> float:
    return float(np.mean((q - fp) ** 2))


def _kl(q: np.ndarray, fp: np.ndarray, eps: float = 1e-9) -> float:
    """KL(FP || quantized) over softmax outputs."""
    p = softmax(np.asarray(fp, dtype=np.float64))
    r = softmax(np.asarray(q, dtype=np.float64))
    return float(np.mean(np.sum(p * (np.log(p + eps) - np.log(r + eps)), axis=-1)))


def _cosine(q: np.ndarray, fp: np.ndarray, eps: float = 1e-12) -> float:
    qn = q / np.maximum(np.linalg.norm(q, axis=-1, keepdims=True), eps)
    fn = fp / np.maximum(np.linalg.norm(fp, axis=-1, keepdims=True), eps)
    return float(np.mean(1.0 - np.sum(qn * fn, axis=-1)))


def _global_contrastive(q: np.ndarray, fp: np.ndarray, tau: float = 0.07) -> float:
    """Contrastive loss on final outputs only (Evol-Q style)."""
    return contrastive_objective(q, fp, tau)


_GLOBAL_LOSSES = {
    "mse": _mse,
    "kl": _kl,
    "cosine": _cosine,
    "global_contrastive": _global_contrastive,
}

#: objective name -> human label used in the Fig. 5(a) harness; this is
#: the ``objective`` registry of :mod:`repro.spec.registry` itself (a
#: Mapping), so ``name in OBJECTIVES`` / ``sorted(OBJECTIVES)`` /
#: ``OBJECTIVES[name]`` keep working while registered extension
#: objectives are accepted everywhere the built-ins are
OBJECTIVES = spec_registry.registry("objective")
for _name, _label in (
    ("mse", "MSE"),
    ("kl", "KL-Divergence"),
    ("cosine", "Cosine"),
    ("global_contrastive", "Global Contrastive"),
    ("global_local_contrastive", "Global-Local Contrastive (ours)"),
):
    OBJECTIVES.register(_name, _label)


class OutputObjectiveEvaluator(IncrementalEvaluator):
    """Fitness from a global (final-output) loss plus the L_CR factor.

    Built on the same incremental engine as ``FitnessEvaluator``; the
    candidate measurement is simply the model's final output, so the fast
    pass records no intermediate activations and the prefix-reuse replay
    recomputes only the suffix forward.  Exposes the same
    ``evaluations``/``computed_evaluations`` counters and an
    ``objective.evaluate`` timer so benches report both evaluators
    uniformly.
    """

    timer_name = "objective.evaluate"

    def __init__(
        self,
        model: Module,
        calib_images: np.ndarray,
        param_counts: list[int],
        objective: str,
        config: FitnessConfig | None = None,
        perf=None,
    ) -> None:
        if objective not in _GLOBAL_LOSSES:
            raise ValueError(
                f"unknown objective {objective!r}; choose from "
                f"{sorted(_GLOBAL_LOSSES)}"
            )
        self.objective = objective
        super().__init__(model, calib_images, param_counts, config, perf=perf)

    def _prepare_reference(self) -> None:
        self.fp_output = np.asarray(self.model(self.images), dtype=np.float64)

    def _reference_measurement(self) -> np.ndarray:
        return np.asarray(self.model(self.images), dtype=np.float64)

    def _measurement_from_pass(self, acts, out, suffix) -> np.ndarray:
        return np.asarray(out, dtype=np.float64)

    def _loss(self, out: np.ndarray) -> float:
        return _GLOBAL_LOSSES[self.objective](out, self.fp_output)
