"""Search throughput — incremental + parallel LPQ engines vs reference.

Runs the same fast-effort genetic search several ways (``FitnessConfig.
fast`` off and on, then through the ``serial`` and ``process`` population
executors with two workers) on a BatchNorm CNN and checks the engine's
hard guarantees: every path produces a bitwise-identical search
trajectory, the incremental path is at least 3× faster than the
reference, and — on a multi-core runner — the process backend delivers
at least 1.8× additional evals/s over the serial fast path.  The
``OutputObjectiveEvaluator`` (Fig. 5(a) baselines) must show the same
incremental speedup.  The canonical ``BENCH_search_throughput.json`` at
the repo root is maintained by ``scripts/run_search_throughput_bench.py``
— the test emits its record to a temp path so plain pytest runs never
dirty the committed artifact.
"""

import os

from conftest import run_once
from repro.perf import run_search_throughput_bench
from repro.perf.bench import write_bench_record

MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
MIN_PARALLEL_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_PARALLEL_SPEEDUP", "1.8")
)
MIN_MULTIJOB_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_MULTIJOB_SPEEDUP", "1.0")
)
#: the parallel wall-clock bar only applies when the hardware can
#: actually run the two workers concurrently
MULTICORE = (os.cpu_count() or 1) >= 2


def _bench():
    return run_search_throughput_bench(
        models=("resnet",), backends=("serial", "process"), workers=2
    )


def test_bench_search_throughput(benchmark, tmp_path):
    rec = run_once(benchmark, _bench)
    write_bench_record(rec, tmp_path / "BENCH_search_throughput.json")
    section = rec["models"]["resnet"]
    assert section["identical"], (
        "fast and reference searches diverged: "
        f"{section['fast']['best_fitness']} vs "
        f"{section['reference']['best_fitness']}"
    )
    assert section["speedup"] >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x speedup, got {section['speedup']:.2f}x"
    )

    # parallel correctness is unconditional: every backend must reproduce
    # the serial trajectory bitwise
    for backend, backend_rec in section["backends"].items():
        assert backend_rec["identical"], (
            f"{backend} backend diverged from the serial trajectory: "
            f"{backend_rec['best_fitness']} vs "
            f"{section['fast']['best_fitness']}"
        )
    process = section["backends"]["process"]
    assert process["workers"] == 2
    if MULTICORE:
        assert process["speedup_vs_fast"] >= MIN_PARALLEL_SPEEDUP, (
            f"expected >= {MIN_PARALLEL_SPEEDUP}x evals/s from the process "
            f"backend, got {process['speedup_vs_fast']:.2f}x"
        )

    # multi-job scheduler: two jobs on one shared pool must reproduce
    # their back-to-back trajectories bitwise, and on a multi-core
    # runner the shared pool must beat back-to-back aggregate throughput
    multi = rec["multi_job"]
    assert multi["identical"], (
        "scheduler-run jobs diverged from their back-to-back runs: "
        f"{multi['jobs']}"
    )
    if MULTICORE:
        assert multi["speedup"] >= MIN_MULTIJOB_SPEEDUP, (
            f"expected >= {MIN_MULTIJOB_SPEEDUP}x aggregate speedup from "
            f"the shared pool, got {multi['speedup']:.2f}x"
        )

    obj = rec["objective_evaluator"]
    assert obj["identical"], (
        "OutputObjectiveEvaluator fast path diverged: "
        f"{obj['fast']['best_fitness']} vs {obj['reference']['best_fitness']}"
    )
    assert obj["speedup"] >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x OutputObjectiveEvaluator speedup, "
        f"got {obj['speedup']:.2f}x"
    )

    benchmark.extra_info["speedup"] = round(section["speedup"], 2)
    benchmark.extra_info["parallel_speedup"] = round(
        process["speedup_vs_fast"], 2
    )
    benchmark.extra_info["objective_speedup"] = round(obj["speedup"], 2)
    benchmark.extra_info["multi_job_speedup"] = round(multi["speedup"], 2)
    benchmark.extra_info["reference_wall_s"] = round(
        section["reference"]["wall_s"], 3
    )
    benchmark.extra_info["fast_wall_s"] = round(section["fast"]["wall_s"], 3)
    caches = section["fast"]["perf"]["caches"]
    benchmark.extra_info["weight_cache_hit_rate"] = round(
        caches["quant.weight_cache"]["hit_rate"], 3
    )
