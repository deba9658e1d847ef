#!/usr/bin/env python
"""Quantize the whole model zoo with one shared-pool scheduler run.

The paper's Table 1 / Table 2 sweeps quantize every zoo model with the
same LPQ recipe.  This driver declares every job as a
:class:`repro.spec.SearchSpec` (model by registry reference —
``zoo:resnet18``, ``bench:vit`` — calibration as a descriptor) and
submits them all to one :class:`repro.serve.SearchScheduler`, so the
searches share a single executor pool instead of spinning one up per
model, and emits a JSON record (including each job's spec, replayable
via ``scripts/run_search.py --spec``) plus a Table-1-style summary.

Usage::

    PYTHONPATH=src python scripts/run_zoo_sweep.py \
        [--model resnet18 --model vit_b ...]  (default: all six zoo models)
        [--suite zoo|bench]   zoo = trained checkpoints (trains + caches
                              on first use); bench = the small synthetic
                              throughput-bench models (fast smoke run)
        [--backend serial|process|remote] [--workers N]
        [--calib 64] [--seed 0] [--effort fast|paper]
        [--no-eval]           skip the before/after top-1 evaluation
        [--out ZOO_sweep.json]

``--effort paper`` uses the paper's search budget (K=20, P=10, C=4);
``fast`` (default) is a reduced budget for quick sweeps.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.data import make_dataset  # noqa: E402
from repro.parallel import (  # noqa: E402
    BACKENDS,
    ExecutorConfig,
    parse_address_list,
)
from repro.quant import LPQConfig, bn_recalibrated, quantized  # noqa: E402
from repro.serve import SearchScheduler  # noqa: E402
from repro.spec import CalibSpec, SearchSpec, resolve_model  # noqa: E402


def search_config(effort: str, seed: int) -> LPQConfig:
    if effort == "paper":
        return LPQConfig(seed=seed)  # K=20, P=10, C=4, B=4
    return LPQConfig(
        population=6, passes=2, cycles=1, block_size=4,
        diversity_parents=5, hw_widths=(2, 4, 8), seed=seed,
    )


def sweep_specs(
    suite: str, names: list[str], calib: CalibSpec, config: LPQConfig
) -> list[SearchSpec]:
    """One declarative spec per model (``zoo:`` or ``bench:`` refs)."""
    return [
        SearchSpec(
            model=f"{suite}:{name}", calib=calib, config=config, name=name
        )
        for name in names
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", action="append", dest="models",
                        help="zoo model(s); repeatable (default: all)")
    parser.add_argument("--suite", choices=("zoo", "bench"), default="zoo")
    parser.add_argument("--backend", choices=BACKENDS, default="process")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--addresses", default=None,
                        help="comma-separated host:port workers "
                             "(remote backend)")
    parser.add_argument("--token", default=None,
                        help="worker auth token (remote backend)")
    parser.add_argument("--calib", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--effort", choices=("fast", "paper"),
                        default="fast")
    parser.add_argument("--no-eval", action="store_true",
                        help="skip before/after top-1 accuracy")
    parser.add_argument("--out", type=Path, default=Path("ZOO_sweep.json"))
    args = parser.parse_args(argv)

    if args.suite == "zoo":
        from repro.models import MODEL_REGISTRY

        names = args.models or sorted(MODEL_REGISTRY)
    else:
        from repro.perf.bench import BENCH_MODELS

        names = args.models or sorted(BENCH_MODELS)

    calib_spec = CalibSpec(batch=args.calib, seed=args.seed + 1)
    config = search_config(args.effort, args.seed)
    specs = sweep_specs(args.suite, names, calib_spec, config)
    calib = calib_spec.build()
    addresses = parse_address_list(args.addresses) if args.addresses else None
    executor = ExecutorConfig(
        backend=args.backend, workers=args.workers,
        addresses=addresses, token=args.token,
    )
    scheduler = SearchScheduler(executor=executor)
    for spec in specs:
        # submit resolves each zoo ref, training + caching checkpoints
        # on first use, so pool workers load from the cache
        scheduler.submit(spec.name, spec=spec)
    start = time.perf_counter()
    results = scheduler.run()
    wall = time.perf_counter() - start

    test = None
    if not args.no_eval:
        test = make_dataset("test", 512, seed=args.seed)

    record: dict = {
        "sweep": "zoo",
        "suite": args.suite,
        "backend": args.backend,
        "effort": args.effort,
        "calib": args.calib,
        "seed": args.seed,
        "wall_s": wall,
        "models": {},
    }
    failed = []
    print(f"zoo sweep: {len(specs)} jobs on one shared {args.backend} pool, "
          f"{wall:.1f}s total")
    for spec in specs:
        name = spec.name
        handle = scheduler.handles[name]
        if not handle.done:
            failed.append(name)
            print(f"[{name}] FAILED:\n{handle.error}")
            continue
        result = results[name]
        row = {
            "spec": spec.to_dict(),
            "mean_weight_bits": result.mean_weight_bits,
            "mean_act_bits": result.mean_act_bits,
            "model_size_mb": result.model_size_mb(),
            "fp_size_mb": sum(result.stats.param_counts) * 4 / 1e6,
            "fitness": result.fitness,
            "evaluations": result.evaluations,
        }
        line = (f"[{name}] W {result.mean_weight_bits:.2f}b  "
                f"A {result.mean_act_bits:.2f}b  "
                f"{result.model_size_mb():.3f} MB "
                f"(FP {row['fp_size_mb']:.3f} MB)  "
                f"{result.evaluations} evals")
        if test is not None:
            from repro.models.zoo import evaluate

            # checkpoint-cache load (trained during submit); one model
            # resident at a time during reporting
            model = resolve_model(spec.model)
            fp_acc = evaluate(model, test.images, test.labels)
            with quantized(model, result.solution, result.act_params):
                with bn_recalibrated(model, calib):
                    q_acc = evaluate(model, test.images, test.labels)
            row["fp_top1"] = fp_acc
            row["lp_top1"] = q_acc
            line += f"  top-1 {fp_acc:.2f}% -> {q_acc:.2f}%"
        record["models"][name] = row
        print(line)
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"record written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
