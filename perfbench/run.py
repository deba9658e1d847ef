"""The repo benchmark: one command that runs a workload and prints every
metric by name with its unit and sample count.

    python3 perfbench/run.py --workload search_cnn --seed 1 --seconds 18 \
        --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` runs the workload untraced and then traced for the same
operations, and reports the per-layer metrics (perfbench/layers.py) plus
the tracing overhead.  The spans of a traced run are written to
``.perfbench/trace-<workload>-seed<seed>.json``.  Every result is checked
against a reference run of its spec; the last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``) and
the exit code is non-zero when any check failed.  Workloads and metrics
are described in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

WORKLOAD_NAMES = ("search_cnn", "search_vit_process", "daemon_sweep")
#: end-to-end metric → (unit, better); a "search" or "job" is one
#: ``lpq_quantize`` call on search_*, one fresh daemon job on daemon_sweep
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "search_s_p50": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "job_latency_p50_ms": ("ms", "lower"),
    "jobs_per_s": ("1/s", "higher"),
}
#: set-ups per run (the main one plus fresh-process probes); the median
#: is reported
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150


def _pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child (read
    before any set-up probe runs, so the child is a pool or fleet
    process of the workload)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (empty where absent)."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def _steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`_cpu_times` readings: the host noise behind a slow run."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    """The box a record was taken on: CPU, versions, BLAS and thread
    settings, so records from different boxes are not compared."""
    import numpy

    blas: dict = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def _setup(workload: str, seed: int, scratch: Path):
    """Import, build and warm up the workload; returns it and the time
    that took (the first timed operation starts right after)."""
    start = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, scratch)
    wl.setup()
    return wl, time.perf_counter() - start


def _probe_setup(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter (imports included)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    Spawned pools and shared memory start it as a child of this process;
    left alone it outlives the process until it reads end-of-file on its
    pipe.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def _latencies_ms(p, kind: str) -> list[float]:
    return [op.latency * 1e3 for op in p.ops
            if op.kind == kind and op.error is None]


def _summary(p) -> tuple[dict, list[str]]:
    """End-to-end metrics of one untraced pass, ``{name: (value, unit,
    samples)}``, plus the latencies that are printed but not metrics:
    too few samples or too noisy run to run to bound
    (perfbench/NOTES.md)."""
    lat = _latencies_ms(p, "fresh")
    rlat = _latencies_ms(p, "replay")
    if not lat or (not rlat and any(op.kind == "replay" for op in p.ops)):
        raise RuntimeError("no successful operation to measure")
    evals = sum(op.record["evaluations"] for op in p.ops
                if op.kind == "fresh" and op.error is None)
    metrics = {
        "search_s_p50": (statistics.median(lat) / 1e3, "s", len(lat)),
        "evals_per_s": (evals / p.wall, "1/s", len(lat)),
        "job_latency_p50_ms": (statistics.median(lat), "ms", len(lat)),
        "jobs_per_s": (len(lat) / p.wall, "1/s", len(lat)),
    }
    derived = [f"{name}: {_pct(values, q):.4g} ms (n={len(values)})"
               for name, values, q in (("job latency p90", lat, 90),
                                       ("replay latency p50", rlat, 50),
                                       ("replay latency p90", rlat, 90))
               if values]
    return metrics, derived


def _check(wl, passes) -> tuple[int, list[str], dict]:
    from workloads import check_ops

    keys = {op.key for p in passes for op in p.ops
            if op.kind == "fresh" and op.error is None}
    refs = wl.references(keys)
    attempted, failures = check_ops(passes, refs,
                                    getattr(wl, "fresh_records", {}))
    return attempted, failures, refs


def run_untraced(args, scratch: Path) -> tuple[dict, int, list, list]:
    wl, main_setup = _setup(args.workload, args.seed, scratch)
    cpu_before = _cpu_times()
    try:
        p = wl.run_pass(seconds=args.seconds)
    finally:
        wl.close()
    steal = _steal_share(cpu_before, _cpu_times())
    rss = peak_rss_mb()
    setups = [main_setup] + [_probe_setup(args.workload, args.seed)
                             for _ in range(SETUP_SAMPLES - 1)]
    summary, derived = _summary(p)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (rss, "MB", 1),
        **summary,
    }
    attempted, failures, refs = _check(wl, [p])
    if steal is not None:
        derived.append(f"cpu steal during the timed loop: {steal:.1%}")
    serial = [r["wall_s"] for r in refs.values() if "wall_s" in r]
    if args.workload == "search_vit_process" and serial:
        derived.append(
            f"speedup over the serial path on the same specs: "
            f"{statistics.median(serial) / metrics['search_s_p50'][0]:.3f}x "
            f"(serial median {statistics.median(serial):.3f} s, "
            f"n={len(serial)})"
        )
    return metrics, attempted, failures, derived


def run_traced(args, scratch: Path) -> tuple[dict, int, list, list]:
    from layers import LayerView, layer_metrics
    from repro.perf import get_perf
    from repro.perf.counters import diff_snapshots
    from repro.quant import lpq_quantize
    from tracer import Tracer

    wl, _ = _setup(args.workload, args.seed, scratch)
    passes = []
    try:
        untraced = wl.run_pass(seconds=args.seconds / 2)
        passes.append(untraced)
        with Tracer() as tracer:
            before = get_perf().snapshot()
            tracer.start()
            traced = wl.run_pass(counts=untraced.fresh_per_caller,
                                 tracer=tracer)
            main_rec = tracer.stop()
            passes.append(traced)
            main = LayerView(main_rec, diff_snapshots(
                get_perf().snapshot(), before), wl.workers)
            compute, serial_rec = main, None
            serial_specs = wl.compute_specs(traced)
            if serial_specs:
                # other processes cannot be wrapped from here: take the
                # compute layers from a serial run of the same specs
                before = get_perf().snapshot()
                tracer.start()
                for spec in serial_specs:
                    lpq_quantize(spec=spec)
                serial_rec = tracer.stop()
                compute = LayerView(serial_rec, diff_snapshots(
                    get_perf().snapshot(), before), 1)
            present = tracer.present_kinds
            missing = list(tracer.missing)
    finally:
        wl.close()
    values, absent = layer_metrics(main, compute, present)
    metrics = {name: (value, unit, None)
               for name, (value, unit) in values.items()}
    metrics["trace.untraced_wall_s"] = (untraced.wall, "s", None)
    metrics["trace.overhead_ratio"] = (traced.wall / untraced.wall,
                                      "ratio", None)
    trace_path = ROOT / ".perfbench" / (
        f"trace-{args.workload}-seed{args.seed}.json")
    trace_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "main": main_rec.to_json(),
        "serial": serial_rec.to_json() if serial_rec else None,
    }))
    attempted, failures, _ = _check(wl, passes)
    derived = [f"spans written to {trace_path.relative_to(ROOT)}"]
    if missing:
        derived.append(f"missing wrap targets: {', '.join(missing)}")
    if absent:
        derived.append(f"absent metrics: {', '.join(absent)}")
    return metrics, attempted, failures, derived


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=scratch_root))
    try:
        if args.setup_only:
            wl, elapsed = _setup(args.workload, args.seed, scratch)
            wl.close()
            print(elapsed)
            return 0
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failures, derived = run(args, scratch)
    finally:
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        n = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:<32} {value:>14.6g} {unit}{n}")
    print(f"  {'failed_ratio':<32} {len(failures) / attempted:>14.6g} "
          f"ratio  ({len(failures)} of {attempted} operations)")
    for line in derived:
        print(f"  {line}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
