"""Table 1 — LPQ quantization accuracy on CNNs (ResNet18/50, MobileNetV2).

For each model: FP32 baseline size/accuracy and the LPQ row (mixed-
precision average W/A bits, bit-packed model size, top-1).  The shape
target is <1% average top-1 drop at ≥7× compression.
"""

from __future__ import annotations

import numpy as np

from ..models import fp_model_size_mb, get_model
from ..models.zoo import evaluate
from .common import EFFORTS, eval_quantized, get_lpq_result, test_set
from .reference import TABLE1

__all__ = ["run_table1", "lpq_row"]


def lpq_row(model_name: str, effort: str = "fast") -> dict:
    """One LPQ result row for Table 1/2."""
    eff = EFFORTS[effort]
    model, solution, act, rec = get_lpq_result(model_name, effort)
    images, labels = test_set(eff.eval_images)
    fp_top1 = evaluate(model, images, labels)
    q_top1 = eval_quantized(model, solution, act, images, labels)
    w_bits = solution.mean_weight_bits()
    a_bits = float(np.mean([p.n for p in act]))
    return {
        "model": model_name,
        "wa": f"MP{w_bits:.1f}/MP{a_bits:.1f}",
        "w_bits": w_bits,
        "a_bits": a_bits,
        "size_mb": rec["model_size_mb"],
        "fp_size_mb": fp_model_size_mb(model),
        "fp_top1": fp_top1,
        "top1": q_top1,
        "drop": fp_top1 - q_top1,
        "compression": fp_model_size_mb(model) / rec["model_size_mb"],
    }


def run_table1(effort: str = "fast", models=("resnet18", "resnet50", "mobilenetv2")) -> dict:
    rows = {m: lpq_row(m, effort) for m in models}
    return {
        "rows": rows,
        "mean_drop": float(np.mean([r["drop"] for r in rows.values()])),
        "mean_compression": float(
            np.mean([r["compression"] for r in rows.values()])
        ),
        "paper": TABLE1,
    }
