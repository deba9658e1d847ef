"""LPQ fitness function (paper Section 4.1).

``L_F = L_CO · L_CR^λ`` where

* ``L_CO`` is a **global-local contrastive objective** over kurtosis-pooled
  intermediate representations (Eq. 6): for every calibration image ``p``
  the quantized model's IR fingerprint must stay close to the FP model's
  fingerprint of the *same* image (positive) and far from FP fingerprints
  of *other* images (negatives).
* ``L_CR`` rewards compression: Σ_l #PARAM_l · n_l, normalised here by the
  8-bit footprint so it is a dimensionless ratio in (0, 1].

Lower is better for both factors; λ = 0.4 balances them.

The evaluator has two modes.  The reference path quantizes every layer,
re-estimates BatchNorm statistics in a full calibration pass, then runs a
second full pass to fingerprint the quantized model.  The *incremental*
engine (``FitnessConfig.fast``, default on) produces bitwise-identical
fitness values while exploiting the block-wise structure of the search —
see :class:`repro.quant.engine.IncrementalEvaluator` for the machinery
(quantized-weight cache, prefix-reuse forward replay, fused BN
recalibration).  On top of the shared engine this evaluator adds a
pooled-column cache: kurtosis fingerprint columns of unchanged layers
are reused as-is.
"""

from __future__ import annotations

import numpy as np

from ..nn import Module, record_activations
from .engine import FitnessConfig, IncrementalEvaluator
from .params import QuantSolution
from .pooling import pool_representation

__all__ = [
    "FitnessConfig",
    "ir_fingerprints",
    "contrastive_objective",
    "compression_ratio",
    "FitnessEvaluator",
]


def ir_fingerprints(
    model: Module,
    images: np.ndarray,
    layer_names: list[str],
    pooling: str = "kurtosis",
) -> np.ndarray:
    """(B, L) matrix: pooled IR of every layer, concatenated per image."""
    with record_activations(model, layer_names) as acts:
        model(images)
    batch = len(images)
    cols = [_pool_column(acts[name], batch, pooling) for name in layer_names]
    return np.stack(cols, axis=1)


def _pool_column(h: np.ndarray, batch: int, pooling: str) -> np.ndarray:
    if pooling == "kurtosis":
        return pool_representation(h, batch)
    if pooling == "mean":
        from .pooling import mean_pool_representation

        return mean_pool_representation(h, batch)
    raise ValueError(f"unknown pooling {pooling!r}")


def _normalize_rows(f: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    norm = np.linalg.norm(f, axis=1, keepdims=True)
    return f / np.maximum(norm, eps)


def contrastive_objective(
    fq: np.ndarray, ffp: np.ndarray, tau: float = 0.07
) -> float:
    """Eq. 6 over fingerprint matrices (rows = images).

    Fingerprints are row-normalised so the inner products are cosine
    similarities and the exponentials are bounded.  The per-image masked
    log-sum-exp over negatives is computed for all rows at once: the
    off-diagonal similarities are gathered row-major into a (B, B-1)
    matrix, so each row reduces over the same elements in the same order
    as a per-row loop would.
    """
    q = _normalize_rows(np.asarray(fq, dtype=np.float64))
    fp = _normalize_rows(np.asarray(ffp, dtype=np.float64))
    sim = q @ fp.T / tau  # sim[p, p'] = <H_q_p, H_FP_p'> / τ
    b = sim.shape[0]
    pos = np.diag(sim)
    off = sim[~np.eye(b, dtype=bool)].reshape(b, b - 1)
    m = off.max(axis=1)
    neg_logsum = m + np.log(np.exp(off - m[:, None]).sum(axis=1))
    # log(1 + e^{-pos} Σ_{p-} e^{neg}) computed stably in log space
    z = neg_logsum - pos
    loss = np.log1p(np.exp(np.minimum(z, 50.0)))
    loss = np.where(z > 50.0, z, loss)  # asymptote for huge z
    return float(loss.mean())


def compression_ratio(solution: QuantSolution, param_counts: list[int]) -> float:
    """Σ #PARAM_l · n_l normalised by the 8-bit footprint (∈ (0, 1])."""
    bits = sum(p.n * c for p, c in zip(solution.layer_params, param_counts))
    return bits / (8.0 * sum(param_counts))


class FitnessEvaluator(IncrementalEvaluator):
    """Evaluates L_F for candidate solutions against a frozen FP reference.

    The FP fingerprints are computed once.  With the incremental engine
    (see module docstring) each candidate evaluation costs one partial
    forward pass over the calibration batch — only the layers at or after
    the first changed layer are recomputed; with ``fast=False`` it costs
    a full BN-recalibration pass plus a full fingerprint pass.

    The engine's caches assume the model's FP weights stay frozen for the
    evaluator's lifetime; call :meth:`reset_caches` after mutating them.
    """

    timer_name = "fitness.evaluate"

    def _prepare_reference(self) -> None:
        self.fp_fingerprints = ir_fingerprints(
            self.model, self.images, self.layer_names, self.config.pooling
        )
        self._col_cache: list[np.ndarray | None] = [None] * len(self._layers)

    def _reference_measurement(self) -> np.ndarray:
        return ir_fingerprints(
            self.model, self.images, self.layer_names, self.config.pooling
        )

    def _suffix_record_names(self, suffix: range) -> list[str]:
        return [self.layer_names[i] for i in suffix]

    def _measurement_from_pass(self, acts, out, suffix) -> np.ndarray:
        batch = len(self.images)
        for i in suffix:
            self._col_cache[i] = _pool_column(
                acts[self.layer_names[i]], batch, self.config.pooling
            )
        return np.stack(self._col_cache, axis=1)

    def _loss(self, fq: np.ndarray) -> float:
        return contrastive_objective(fq, self.fp_fingerprints, self.config.tau)

    def _on_reset(self) -> None:
        self._col_cache = [None] * len(self._layers)
