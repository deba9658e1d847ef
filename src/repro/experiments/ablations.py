"""Design-choice ablations called out in docs/design.md §5 (beyond the
paper's own tables): kurtosis vs mean IR pooling, diversity-promoting
selection on/off, block-wise vs whole-vector regeneration."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..data import calibration_batch
from ..models import get_model
from ..quant import (
    FitnessConfig,
    FitnessEvaluator,
    LPQConfig,
    LPQEngine,
    collect_layer_stats,
    derive_activation_params,
    quantized,
)
from ..models.zoo import evaluate
from .common import EFFORTS, test_set

__all__ = ["run_pooling_ablation", "run_search_ablation", "search_variants"]


def _search_accuracy(model, calib, stats, config, fitness_config=None,
                     eval_images: int = 256) -> dict:
    evaluator = FitnessEvaluator(
        model, calib, stats.param_counts, fitness_config
    )
    engine = LPQEngine(evaluator, stats.weight_log_centers, config)
    solution, fitness = engine.run()
    from ..quant import bn_recalibrated

    act = derive_activation_params(solution, stats)
    images, labels = test_set(eval_images, seed=11)
    with quantized(model, solution, act):
        with bn_recalibrated(model, calib):
            top1 = evaluate(model, images, labels)
    return {
        "top1": top1,
        "fitness": fitness,
        "mean_bits": solution.mean_weight_bits(),
        "evaluations": evaluator.evaluations,
    }


def run_pooling_ablation(model_name: str = "resnet18", effort: str = "fast") -> dict:
    """Kurtosis-3 pooling (paper) vs mean pooling of IR fingerprints."""
    eff = EFFORTS[effort]
    model = get_model(model_name)
    calib = calibration_batch(eff.calib, seed=4)
    stats = collect_layer_stats(model, calib)
    return {
        "kurtosis": _search_accuracy(
            model, calib, stats, eff.config, FitnessConfig(pooling="kurtosis")
        ),
        "mean": _search_accuracy(
            model, calib, stats, eff.config, FitnessConfig(pooling="mean")
        ),
    }


def search_variants(base: LPQConfig) -> dict[str, LPQConfig]:
    """The search ablation's configs: ``base`` and ``base`` with one
    switch off each, so every variant searches the same space.

    >>> from repro.quant import LPQConfig
    >>> v = search_variants(LPQConfig(hw_widths=(4, 8)))
    >>> v["no_diversity"].diversity, v["no_diversity"].hw_widths
    (False, (4, 8))
    """
    return {
        "full": base,
        "no_diversity": replace(base, diversity=False),
        "no_blockwise": replace(base, blockwise=False),
    }


def run_search_ablation(model_name: str = "resnet18", effort: str = "fast") -> dict:
    """Step-3 diversity and block-wise regeneration switched off."""
    eff = EFFORTS[effort]
    model = get_model(model_name)
    calib = calibration_batch(eff.calib, seed=5)
    stats = collect_layer_stats(model, calib)
    return {
        name: _search_accuracy(model, calib, stats, cfg)
        for name, cfg in search_variants(eff.config).items()
    }
