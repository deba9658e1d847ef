"""Table 4 — PE-type ablation on ResNet50: compute density, top-1
accuracy, and energy efficiency for LPA-2/4/8 (mixed), LPA-8, LPA-2,
Posit-2/4/8 and AdaptivFloat-8.

Shape targets: LPA-2 best density/efficiency but collapsed accuracy,
LPA-8 best accuracy but lowest LPA density, the mixed LPA close to the
best of both; posit and AdaptivFloat PEs far less efficient.
"""

from __future__ import annotations

import numpy as np

from ..accel import adaptivfloat_arch, evaluate_arch, lpa, posit_arch
from ..accel.workload import paper_resnet50_shapes
from ..numerics import LPParams, calibrated_format, make_format
from ..nn import quantizable_layers
from ..quant import QuantSolution, collect_layer_stats, derive_activation_params
from ..data import calibration_batch
from ..models.zoo import evaluate
from .common import EFFORTS, eval_quantized, get_lpq_result, test_set
from .reference import TABLE4
from .table3 import resnet50_bits

__all__ = ["run_table4"]


def _uniform_lp_solution(model, stats, n: int) -> QuantSolution:
    es = min(2, max(n - 3, 0))
    rs = min(3, max(n - 1, 1))
    return QuantSolution(
        tuple(
            LPParams(n, es, rs, stats.weight_log_centers[i])
            for i in range(len(quantizable_layers(model)))
        )
    )


def _accuracy_with_family(model, family_ctor, images, labels, calib) -> float:
    """Top-1 with every layer weight quantized by ``family_ctor(w)``."""
    from ..quant import bn_recalibrated

    layers = quantizable_layers(model)
    try:
        for _, layer in layers:
            w = layer.weight.data
            fmt = family_ctor(w)
            layer.weight_fq = fmt.quantize(w).astype(w.dtype)
        with bn_recalibrated(model, calib):
            return evaluate(model, images, labels)
    finally:
        for _, layer in layers:
            layer.clear_quant()


def run_table4(effort: str = "fast") -> dict:
    eff = EFFORTS[effort]
    shapes = paper_resnet50_shapes()
    w_mixed, a_mixed = resnet50_bits(effort)
    model, solution, act, _ = get_lpq_result("resnet50", effort)
    images, labels = test_set(eff.eval_images)
    calib = calibration_batch(eff.calib, seed=1)
    stats = collect_layer_stats(model, calib)

    rows: dict[str, dict] = {}

    def hw(label, arch, bits):
        r = evaluate_arch(shapes, arch, bits, a_mixed)
        rows[label] = {
            "density": r.compute_density_tops_mm2,
            "gops_per_watt": r.gops_per_watt,
        }

    hw("LPA-2/4/8", lpa(), w_mixed)
    hw("LPA-8", lpa(), [8] * len(shapes))
    hw("LPA-2", lpa(), [2] * len(shapes))
    hw("Posit-2/4/8", posit_arch(), w_mixed)
    hw("AdaptivFloat-8", adaptivfloat_arch(), [8] * len(shapes))

    # accuracy column
    rows["LPA-2/4/8"]["top1"] = eval_quantized(model, solution, act, images, labels)
    sol8 = _uniform_lp_solution(model, stats, 8)
    rows["LPA-8"]["top1"] = eval_quantized(
        model, sol8, derive_activation_params(sol8, stats), images, labels
    )
    sol2 = _uniform_lp_solution(model, stats, 2)
    rows["LPA-2"]["top1"] = eval_quantized(
        model, sol2, derive_activation_params(sol2, stats), images, labels
    )
    # standard posit (no sf/rs adaptation) at the same mixed widths
    n_layers = len(quantizable_layers(model))
    posit_bits = [solution[i].n for i in range(n_layers)]

    def posit_ctor_factory():
        idx = {"i": 0}

        def ctor(w):
            n = posit_bits[idx["i"] % n_layers]
            idx["i"] += 1
            return make_format(f"posit:{max(n, 2)},{min(1, max(n - 3, 0))}")

        return ctor

    rows["Posit-2/4/8"]["top1"] = _accuracy_with_family(
        model, posit_ctor_factory(), images, labels, calib
    )
    rows["AdaptivFloat-8"]["top1"] = _accuracy_with_family(
        model, lambda w: calibrated_format("adaptivfloat", w, 8),
        images, labels, calib,
    )

    fp_top1 = evaluate(model, images, labels)
    return {"rows": rows, "fp_top1": fp_top1, "paper": TABLE4}
