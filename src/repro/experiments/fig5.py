"""Fig. 5 — (a) convergence of the search under different objectives,
(b) per-layer RMSE of quantization error by number format.
"""

from __future__ import annotations

import numpy as np

from ..data import calibration_batch
from ..models import get_model
from ..models.zoo import evaluate
from ..parallel import EvaluatorSpec
from ..quant import (
    LPQEngine,
    collect_layer_stats,
    derive_activation_params,
    per_layer_rmse,
    quantized,
)
from .common import EFFORTS, test_set

__all__ = ["convergence_curves", "format_rmse", "run_fig5a", "run_fig5b"]

FIG5A_OBJECTIVES = ("mse", "kl", "global_contrastive", "global_local_contrastive")


def convergence_curves(
    model_name: str = "resnet18",
    objectives=FIG5A_OBJECTIVES,
    effort: str = "fast",
    probe_every: int = 2,
    eval_images: int = 256,
) -> dict:
    """Fig. 5(a): top-1 of the incumbent solution vs search iteration for
    each objective.  The engine is stepped manually so accuracy can be
    probed mid-search."""
    eff = EFFORTS[effort]
    model = get_model(model_name)
    calib = calibration_batch(eff.calib, seed=2)
    stats = collect_layer_stats(model, calib)
    images, labels = test_set(eval_images, seed=9)
    curves: dict[str, dict] = {}
    for obj in objectives:
        evaluator = EvaluatorSpec(
            images=calib,
            model=model,
            objective=None if obj == "global_local_contrastive" else obj,
            act_mode=None,
            stats=stats,
        ).build()
        engine = LPQEngine(evaluator, stats.weight_log_centers, eff.config)
        engine.initialize()
        accs, iters = [], []
        update = 0

        def probe():
            from ..quant import bn_recalibrated

            best = engine.population[0][0]
            act = derive_activation_params(best, stats)
            with quantized(model, best, act):
                with bn_recalibrated(model, calib):
                    accs.append(evaluate(model, images, labels))
            iters.append(update)

        probe()
        for _ in range(eff.config.passes):
            for block in engine._blocks():
                for _ in range(eff.config.cycles):
                    engine.step(block)
                    update += 1
                    if update % probe_every == 0:
                        probe()
        if iters[-1] != update:
            probe()
        curves[obj] = {
            "iterations": iters,
            "top1": accs,
            "fitness": engine.history.best_fitness,
        }
    return curves


def run_fig5a(effort: str = "fast") -> dict:
    """Shape target: the global-local contrastive objective ends at the
    highest (or tied-highest) late-stage accuracy."""
    curves = convergence_curves(effort=effort)
    final = {obj: c["top1"][-1] for obj, c in curves.items()}
    return {
        "curves": {k: {kk: vv for kk, vv in v.items() if kk != "fitness"}
                   for k, v in curves.items()},
        "final_top1": final,
        "ours_is_best": final["global_local_contrastive"]
        >= max(v for k, v in final.items() if k != "global_local_contrastive")
        - 1e-9,
    }


FIG5B_FAMILIES = ("int", "float", "adaptivfloat", "posit", "lns", "lp")


def format_rmse(
    model_name: str = "vit_b", bits: int = 6, families=FIG5B_FAMILIES
) -> dict:
    """Fig. 5(b): per-layer weight-quantization RMSE per format family."""
    model = get_model(model_name)
    per_family = {
        fam: per_layer_rmse(model, fam, bits) for fam in families
    }
    means = {fam: float(np.mean(list(v.values()))) for fam, v in per_family.items()}
    return {"per_layer": per_family, "mean_rmse": means}


def run_fig5b(model_name: str = "vit_b", bits: int = 6) -> dict:
    res = format_rmse(model_name, bits)
    means = res["mean_rmse"]
    res["best_format"] = min(means, key=means.get)
    res["lp_vs_adaptivfloat"] = means["adaptivfloat"] / means["lp"]
    return res
