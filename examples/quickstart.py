"""Quickstart: the LP data type and one-call model quantization.

Run:  python examples/quickstart.py
"""

import os

import numpy as np

from repro.numerics import LogPositFormat, LPParams, tensor_log_center
from repro.parallel import ExecutorConfig
from repro.quant import LPQConfig, bn_recalibrated, lpq_quantize, quantized
from repro.data import calibration_batch, make_dataset
from repro.models import get_model
from repro.models.zoo import evaluate


def main() -> None:
    # --- 1. LP as a number format --------------------------------------
    # LP<n, es, rs, sf>: width, exponent size, regime cap, scale factor.
    weights = np.random.default_rng(0).normal(0, 0.05, 4096)
    fmt = LogPositFormat(
        LPParams(n=6, es=1, rs=4, sf=tensor_log_center(weights))
    )
    q = fmt.quantize(weights)
    rmse = np.sqrt(np.mean((weights - q) ** 2))
    print(f"LP format {fmt.name}")
    print(f"  dynamic range: {fmt.dynamic_range()}")
    print(f"  6-bit RMSE on N(0, 0.05) weights: {rmse:.5f}")

    # --- 2. Post-training quantization with LPQ -------------------------
    model = get_model("resnet18")  # trains + caches on first call
    calib = calibration_batch(64)  # unlabelled calibration images
    # the executor knob fans candidate evaluations out across worker
    # processes (backends: "serial", "process", "remote"); every backend
    # produces a bitwise-identical search trajectory, only faster
    workers = min(os.cpu_count() or 1, 4)
    executor = (
        ExecutorConfig(backend="process", workers=workers)
        if workers > 1 else None  # serial is the single-core sweet spot
    )
    result = lpq_quantize(
        model,
        calib,
        config=LPQConfig(population=8, passes=1, cycles=1, block_size=6,
                         hw_widths=(4, 8)),
        executor=executor,
    )
    backend = executor.backend if executor else "serial"
    print(f"\nLPQ searched {len(result.solution)} layers "
          f"({result.evaluations} fitness evaluations, "
          f"{backend} backend)")
    print(f"  mean weight bits: {result.mean_weight_bits:.2f}")
    print(f"  mean act bits:    {result.mean_act_bits:.2f}")
    print(f"  model size:       {result.model_size_mb():.3f} MB "
          f"(FP32: {sum(result.stats.param_counts) * 4 / 1e6:.3f} MB)")

    # --- 3. Accuracy before/after ---------------------------------------
    test = make_dataset("test", 512)
    fp = evaluate(model, test.images, test.labels)
    # deployment: re-estimate BatchNorm statistics under quantized weights
    with quantized(model, result.solution, result.act_params):
        with bn_recalibrated(model, calib):
            qacc = evaluate(model, test.images, test.labels)
    print(f"\ntop-1: FP {fp:.2f}%  ->  LP mixed-precision {qacc:.2f}% "
          f"(drop {fp - qacc:.2f}%)")

    # --- 4. The same search as a declarative spec file -------------------
    # A SearchSpec names everything by registry reference, so the whole
    # experiment round-trips through plain JSON (lpq_quantize(spec=...)
    # reproduces the search above bit for bit).
    from repro.spec import CalibSpec, SearchSpec

    spec = SearchSpec(
        model="zoo:resnet18",
        calib=CalibSpec(batch=64),
        config=LPQConfig(population=8, passes=1, cycles=1, block_size=6,
                         hw_widths=(4, 8)),
        executor=executor,
    )
    path = spec.dump("quickstart_search.json")
    print(f"\nspec written to {path} ({len(spec.to_json())} bytes of JSON)")
    print(f"replay it:  python scripts/run_search.py --spec {path}")


if __name__ == "__main__":
    main()
