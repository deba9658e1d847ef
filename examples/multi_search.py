"""Multi-search scheduling: quantize a fleet of models on one pool.

The fleet is declared as :class:`repro.spec.SearchSpec` values — each
spec names its model in the component registry (``bench:resnet``,
``bench:vit``) and describes its calibration batch instead of carrying
the array, so every job is a plain-JSON request (the same form the
committed spec files under ``examples/specs/`` use, and the form the
shared process pool ships to its workers).

Runs the two searches first back-to-back (a dedicated executor pool
each, via ``lpq_quantize(spec=...)``), then multiplexed onto one shared
pool by the ``repro.serve`` scheduler, and checks the scheduler moved
no bits while sharing the workers.

Run:  python examples/multi_search.py
"""

import os
import time
from pathlib import Path

from repro.parallel import ExecutorConfig
from repro.perf import get_perf, reset_perf
from repro.perf.bench import bench_config
from repro.quant import lpq_quantize
from repro.serve import lpq_quantize_many
from repro.spec import CalibSpec, SearchSpec


def build_specs() -> list[SearchSpec]:
    """Two deterministic, heterogeneous jobs (CNN + LayerNorm ViT)."""
    return [
        SearchSpec(
            model=f"bench:{name}",
            calib=CalibSpec(batch=16, seed=1),
            config=bench_config(seed=0),
            name=name,
        )
        for name in ("resnet", "vit")
    ]


def main() -> None:
    specs = build_specs()
    workers = min(os.cpu_count() or 1, 4)
    executor = ExecutorConfig(
        backend="process" if workers > 1 else "serial", workers=workers
    )
    print(f"executor: {executor.backend} x {executor.resolved_workers()}")

    # every job is a JSON-serializable request — this is what crosses
    # the worker boundary, and what you would commit as a spec file
    # (SearchSpec.dump/load; see examples/specs/tiny_resnet.json)
    print(f"fleet: {[spec.model for spec in specs]} "
          f"({len(specs[0].to_json())}-byte JSON specs)")

    # --- back-to-back: one search (and one pool) at a time -------------
    import dataclasses

    start = time.perf_counter()
    standalone = {
        spec.name: lpq_quantize(
            spec=dataclasses.replace(spec, executor=executor)
        )
        for spec in specs
    }
    sequential_wall = time.perf_counter() - start
    print(f"back-to-back: {sequential_wall:.2f}s")

    # --- scheduler: both searches share one pool ------------------------
    reset_perf()
    start = time.perf_counter()
    results = lpq_quantize_many(specs, executor=executor)
    scheduler_wall = time.perf_counter() - start
    print(f"scheduler:    {scheduler_wall:.2f}s "
          f"(speedup {sequential_wall / scheduler_wall:.2f}x)\n")

    for name, result in results.items():
        same = (
            result.solution == standalone[name].solution
            and result.fitness == standalone[name].fitness
        )
        print(f"[{name}] {len(result.solution)} layers  "
              f"mean weight bits {result.mean_weight_bits:.2f}  "
              f"size {result.model_size_mb():.3f} MB  "
              f"{result.evaluations} evaluations  "
              f"bitwise == standalone: {same}")

    # the scheduler merges per-job registries back, so the shared-pool
    # run stays observable end to end
    snap = get_perf().snapshot()
    weights = snap["caches"]["quant.weight_cache"]
    print(f"\nscheduler batches: {snap['counters']['serve.batches']}  "
          f"chunks: {snap['counters']['serve.chunks']}  "
          f"weight-cache hit rate: {weights['hit_rate'] * 100:.1f}%")

    # the same fleet, launched from a committed spec file
    spec_path = Path(__file__).parent / "specs" / "tiny_resnet.json"
    if spec_path.exists():
        from_file = lpq_quantize(spec=SearchSpec.load(spec_path))
        print(f"\nfrom {spec_path.name}: fitness {from_file.fitness:.4f}  "
              f"mean weight bits {from_file.mean_weight_bits:.2f}")


if __name__ == "__main__":
    main()
