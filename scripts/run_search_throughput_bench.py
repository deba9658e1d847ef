#!/usr/bin/env python
"""Run the LPQ search-throughput benchmark and emit its JSON record.

Usage::

    PYTHONPATH=src python scripts/run_search_throughput_bench.py \
        [--calib 16] [--seed 0] [--model resnet --model vit ...] \
        [--backend serial --backend process ...] [--workers N] \
        [--out BENCH_search_throughput.json]

For every selected model the record compares the reference evaluation
path, the incremental engine (quantized-weight cache, fused
BN recalibration, prefix-reuse forwards), and each
backend's pool running the same search as a one-job
``repro.serve.SearchScheduler`` (what ``lpq_quantize`` runs), asserting
the trajectories stay bitwise identical.  The ``multi_job`` section
additionally compares two jobs run back-to-back against the
``repro.serve`` shared-pool scheduler, and the ``transport`` section
re-runs each backend cold then warm against one fleet — the warm run
must show ``blob.hits > 0`` and a lower ``transport.bytes_sent`` while
staying bitwise identical.  The emitted file is the repo's
perf-trajectory artifact: commit a refreshed copy whenever a PR moves
the numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.parallel import BACKENDS, parse_address_list  # noqa: E402
from repro.perf import run_search_throughput_bench  # noqa: E402
from repro.perf.bench import BENCH_MODELS, write_bench_record  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calib", type=int, default=16,
                        help="calibration batch size (default 16)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--model", action="append", dest="models",
                        choices=sorted(BENCH_MODELS),
                        help="benchmark model(s); repeatable "
                             "(default: all of resnet, vit, swin)")
    parser.add_argument("--backend", action="append", dest="backends",
                        choices=BACKENDS,
                        help="executor backend(s); repeatable "
                             "(default: serial and process)")
    parser.add_argument("--workers", type=int, default=None,
                        help="executor worker count (default: all CPUs; "
                             "for --backend remote without --addresses, "
                             "the local fleet size, default 2)")
    parser.add_argument("--addresses", default=None,
                        help="comma-separated host:port workers for the "
                             "remote backend (default: start a local "
                             "in-process fleet)")
    parser.add_argument("--no-objective", action="store_true",
                        help="skip the OutputObjectiveEvaluator section")
    parser.add_argument("--no-multi-job", action="store_true",
                        help="skip the shared-pool multi-job scheduler "
                             "section")
    parser.add_argument("--no-transport", action="store_true",
                        help="skip the cold-vs-warm-fleet transport "
                             "section")
    parser.add_argument("--chaos", default=None,
                        help="comma-separated fault-plan names from "
                             "repro.serve.chaos.COMMITTED_PLANS, or "
                             "'all': adds the chaos section — the same "
                             "search against a misbehaving fleet, "
                             "asserting bitwise identity and the "
                             "expected fault.* recovery counters")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: repo root "
                             "BENCH_search_throughput.json)")
    args = parser.parse_args(argv)

    models = tuple(args.models or ("resnet", "vit", "swin"))
    backends = tuple(args.backends or ("serial", "process"))
    addresses = parse_address_list(args.addresses) if args.addresses else None
    chaos_plans: tuple[str, ...] = ()
    if args.chaos:
        from repro.serve.chaos import COMMITTED_PLANS

        if args.chaos == "all":
            chaos_plans = tuple(sorted(COMMITTED_PLANS))
        else:
            chaos_plans = tuple(args.chaos.split(","))
            unknown = [p for p in chaos_plans if p not in COMMITTED_PLANS]
            if unknown:
                parser.error(
                    f"unknown fault plan(s) {unknown}; choose from "
                    f"{sorted(COMMITTED_PLANS)}"
                )
    record = run_search_throughput_bench(
        calib=args.calib,
        seed=args.seed,
        models=models,
        backends=backends,
        workers=args.workers,
        include_objective=not args.no_objective,
        include_multi_job=not args.no_multi_job,
        include_transport=not args.no_transport,
        addresses=addresses,
        chaos_plans=chaos_plans,
    )
    path = write_bench_record(record, args.out)

    ok = True
    workers = ", ".join(
        f"{bk}={n}" for bk, n in record["workers"].items()
    ) or "none"
    print(f"cpu count: {record['cpu']['count']}  workers: {workers}")
    for name, section in record["models"].items():
        ref, fast = section["reference"], section["fast"]
        print(f"[{name}]")
        print(f"  reference: {ref['wall_s']:.2f}s "
              f"({ref['evals_per_s']:.2f} evals/s)")
        print(f"  fast:      {fast['wall_s']:.2f}s "
              f"({fast['evals_per_s']:.2f} evals/s)  "
              f"speedup {section['speedup']:.2f}x  "
              f"identical: {section['identical']}")
        ok = ok and section["identical"]
        for backend, rec in section["backends"].items():
            print(f"  {backend:<9}: {rec['wall_s']:.2f}s "
                  f"({rec['evals_per_s']:.2f} evals/s, "
                  f"{rec['workers']} workers)  "
                  f"{rec['speedup_vs_fast']:.2f}x vs fast  "
                  f"identical: {rec['identical']}")
            ok = ok and rec["identical"]
    obj = record.get("objective_evaluator")
    if obj is not None:
        print(f"[objective:{obj['objective']} on {obj['model']}]")
        print(f"  reference: {obj['reference']['wall_s']:.2f}s  "
              f"fast: {obj['fast']['wall_s']:.2f}s  "
              f"speedup {obj['speedup']:.2f}x  "
              f"identical: {obj['identical']}")
        ok = ok and obj["identical"]
    multi = record.get("multi_job")
    if multi is not None:
        agg = multi["aggregate_evals_per_s"]
        print(f"[multi-job: {', '.join(multi['jobs'])} on shared "
              f"{multi['backend']} pool]")
        print(f"  back-to-back: {multi['sequential_wall_s']:.2f}s "
              f"({agg['sequential']:.2f} evals/s)")
        print(f"  scheduler:    {multi['scheduler_wall_s']:.2f}s "
              f"({agg['scheduler']:.2f} evals/s)  "
              f"speedup {multi['speedup']:.2f}x  "
              f"identical: {multi['identical']}")
        ok = ok and multi["identical"]
    transport = record.get("transport")
    if transport is not None:
        for backend, sec in transport.items():
            cold, warm = sec["cold"], sec["warm"]
            print(f"[transport: {backend} on {sec['model']}]")
            print(f"  cold: sent {cold['bytes_sent']}B  "
                  f"saved {cold['bytes_saved']}B  "
                  f"blob hits/misses {cold['blob']['hits']}/"
                  f"{cold['blob']['misses']}")
            print(f"  warm: sent {warm['bytes_sent']}B  "
                  f"saved {warm['bytes_saved']}B  "
                  f"blob hits/misses {warm['blob']['hits']}/"
                  f"{warm['blob']['misses']}  "
                  f"({sec['warm_bytes_ratio']:.3f}x cold bytes)  "
                  f"identical: {sec['identical']}")
            ok = ok and sec["identical"]
    chaos = record.get("chaos")
    if chaos is not None:
        for plan, sec in chaos.items():
            fired = {c: n for c, n in sec["fault"].items() if n}
            print(f"[chaos: {plan} on {sec['model']} "
                  f"({sec['workers']} workers)]")
            print(f"  {sec['wall_s']:.2f}s  fault counters "
                  f"{json.dumps(fired, sort_keys=True)}  "
                  f"counters_ok: {sec['counters_ok']}  "
                  f"identical: {sec['identical']}")
            ok = ok and sec["identical"] and sec["counters_ok"]
    print(f"record written to {path}")
    first = record["models"][models[0]]
    evictions = {
        run: first[run]["cache_evictions"]
        for run in ("reference", "fast")
        if first[run].get("cache_evictions")
    }
    if evictions:
        print(f"cache evictions: {json.dumps(evictions, sort_keys=True)}")
    print(json.dumps(first["fast"]["perf"]["caches"], indent=2,
                     sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
