#!/usr/bin/env python
"""Run declarative LPQ searches from JSON spec or sweep files.

The spec file is a serialized :class:`repro.spec.SearchSpec` — model by
registry name, calibration batch as a ``(batch, seed, source)``
descriptor, search/fitness configs, objective, executor, seed — so the
whole experiment is reproducible from the one file (committed examples
live under ``examples/specs/``).  A sweep file is one base spec × a
parameter grid (:mod:`repro.spec.sweep`), expanded into a named fleet
and run on one shared pool via :func:`repro.serve.lpq_quantize_many`.

Usage::

    PYTHONPATH=src python scripts/run_search.py --spec examples/specs/tiny_resnet.json
    PYTHONPATH=src python scripts/run_search.py --spec my_search.json \
        --backend process --workers 4 --out result.json
    PYTHONPATH=src python scripts/run_search.py --spec my_search.json \
        --backend remote --addresses 127.0.0.1:7301,127.0.0.1:7302
    PYTHONPATH=src python scripts/run_search.py --sweep examples/specs/tiny_sweep.json
    PYTHONPATH=src python scripts/run_search.py --spec my_search.json \
        --cache-dir .search-cache   # replays an identical spec's result
    PYTHONPATH=src python scripts/run_search.py --sweep examples/specs/tiny_sweep.json \
        --server 127.0.0.1:7400     # submit to a running search daemon

``--backend``/``--workers``/``--addresses``/``--token`` override the
spec's executor (handy for running a committed spec serially in CI, or
against a live worker fleet); ``--out`` writes a JSON record of the
spec(s) and result(s).  ``--cache-dir`` keys stored results by
:meth:`SearchSpec.digest` (atomic writes via
:class:`repro.serve.store.ResultStore` — the same store the daemon
trusts) — executor changes don't change the digest because no backend
can move a bit, so a cached serial result satisfies a remote re-run of
the same spec.

``--server HOST:PORT`` submits the spec(s) to a running
``scripts/run_server.py`` daemon instead of executing locally: jobs
are durable server-side (they survive daemon restarts — the client
reconnects and picks the stream back up), progress events print as
they arrive, and ``--priority`` orders the daemon's queue.  The
executor lives server-side, so the executor-override flags and
``--cache-dir`` are rejected in this mode (``--token`` becomes the
*server* auth token).  Exits non-zero on a failed search or a
non-finite fitness — the CI spec legs rely on this.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.parallel import ExecutorConfig, parse_address_list  # noqa: E402
from repro.quant import lpq_quantize  # noqa: E402
from repro.serve import lpq_quantize_many  # noqa: E402
from repro.serve.store import ResultStore, result_record  # noqa: E402
from repro.spec import SearchSpec, load_sweep, registry  # noqa: E402


def _override_executor(spec: SearchSpec, args) -> SearchSpec:
    """Apply the CLI's executor overrides; the spec's other executor
    fields stay in force.  Addresses/token are dropped when the final
    backend is not remote (they only apply there)."""
    if not (args.backend or args.workers is not None or args.addresses
            or args.token):
        return spec
    base = spec.executor or ExecutorConfig()
    backend = args.backend or base.backend
    addresses = None
    token = None
    if backend == "remote":
        if args.addresses:
            addresses = parse_address_list(args.addresses)
        else:
            addresses = base.addresses
        token = args.token if args.token is not None else base.token
    executor = ExecutorConfig(
        backend=backend,
        workers=args.workers if args.workers is not None else base.workers,
        start_method=base.start_method,
        addresses=addresses,
        token=token,
    )
    return dataclasses.replace(spec, executor=executor)


def _print_record(record: dict, cached: bool = False) -> None:
    wall = record.get("wall_s")
    walltext = f" in {wall:.2f}s" if wall is not None else ""
    suffix = "  [cache replay]" if cached else ""
    print(f"result: {len(record['solution'])} layers{walltext} "
          f"({record['evaluations']} fitness evaluations){suffix}")
    print(f"  fitness:          {record['fitness']:.6f}")
    print(f"  mean weight bits: {record['mean_weight_bits']:.2f}")
    print(f"  mean act bits:    {record['mean_act_bits']:.2f}")
    print(f"  model size:       {record['model_size_mb']:.4f} MB")


def _cache_open(cache_dir: Path | None) -> ResultStore | None:
    """The digest-keyed result cache: the same atomic write-then-rename
    :class:`ResultStore` the search daemon trusts (a crash mid-write
    can't leave a torn entry; corrupt files read as misses)."""
    if cache_dir is None:
        return None
    return ResultStore(cache_dir)


def _describe(name: str, spec: SearchSpec) -> None:
    executor = spec.executor.backend if spec.executor else "serial"
    print(f"  [{name}] model={spec.model}  calib={spec.calib.batch}@seed"
          f"{spec.calib.seed}  objective={spec.objective}  "
          f"executor={executor}  seed={spec.search_config().seed}")


def _run_single(args) -> int:
    try:
        spec = SearchSpec.load(args.spec)
    except (OSError, ValueError) as exc:
        print(f"run_search: cannot load spec {args.spec}: {exc}",
              file=sys.stderr)
        return 2
    if not spec.serializable:
        print(f"run_search: spec {args.spec} must name a registered "
              "model and a calib descriptor", file=sys.stderr)
        return 2
    spec = _override_executor(spec, args)
    print(f"spec: {args.spec}")
    _describe(spec.job_name("search"), spec)
    print(f"  registered models: {len(registry.names('model'))}  "
          f"objectives: {len(registry.names('objective'))}")

    cache = _cache_open(args.cache_dir)
    record = cache.load(spec.digest()) if cache is not None else None
    cached = record is not None
    if not cached:
        start = time.perf_counter()
        result = lpq_quantize(spec=spec)
        record = result_record(spec, result, time.perf_counter() - start)
        if cache is not None:
            cache.store(spec.digest(), record)
    _print_record(record, cached=cached)

    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True)
                            + "\n")
        print(f"record written to {args.out}")
    if not math.isfinite(record["fitness"]):
        print(f"run_search: non-finite fitness {record['fitness']!r}",
              file=sys.stderr)
        return 1
    return 0


def _run_sweep(args) -> int:
    try:
        specs = load_sweep(args.sweep)
    except (OSError, ValueError) as exc:
        print(f"run_search: cannot load sweep {args.sweep}: {exc}",
              file=sys.stderr)
        return 2
    specs = {name: _override_executor(spec, args)
             for name, spec in specs.items()}
    print(f"sweep: {args.sweep} ({len(specs)} jobs)")
    for name, spec in specs.items():
        _describe(name, spec)

    cache = _cache_open(args.cache_dir)
    records: dict[str, dict] = {}
    replayed: set[str] = set()
    to_run: dict[str, SearchSpec] = {}
    for name, spec in specs.items():
        record = cache.load(spec.digest()) if cache is not None else None
        if record is not None:
            records[name] = record
            replayed.add(name)
        else:
            to_run[name] = spec
    wall = 0.0
    if to_run:
        # one job in flight per worker: each worker then holds at most
        # that many evaluator replicas, however long the sweep
        executor = next(iter(to_run.values())).executor or ExecutorConfig()
        workers = (1 if executor.backend == "serial"
                   else executor.resolved_workers())
        start = time.perf_counter()
        results = lpq_quantize_many(to_run, max_active_jobs=workers)
        wall = time.perf_counter() - start
        for name, result in results.items():
            record = result_record(to_run[name], result, None)
            records[name] = record
            if cache is not None:
                cache.store(to_run[name].digest(), record)
    print(f"ran {len(to_run)} job(s) in {wall:.2f}s on one shared pool, "
          f"replayed {len(replayed)} from cache")
    for name in specs:
        print(f"[{name}]")
        _print_record(records[name], cached=name in replayed)

    if args.out is not None:
        args.out.write_text(json.dumps(
            {"sweep": str(args.sweep), "jobs": records},
            indent=2, sort_keys=True,
        ) + "\n")
        print(f"record written to {args.out}")
    bad = [name for name, rec in records.items()
           if not math.isfinite(rec["fitness"])]
    if bad:
        print(f"run_search: non-finite fitness in job(s) {bad}",
              file=sys.stderr)
        return 1
    return 0


def _run_remote(args) -> int:
    """Submit the spec(s) to a running search daemon and wait."""
    from repro.serve.server import SearchClient, ServerError

    if args.sweep is not None:
        try:
            specs = load_sweep(args.sweep)
        except (OSError, ValueError) as exc:
            print(f"run_search: cannot load sweep {args.sweep}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"sweep: {args.sweep} ({len(specs)} jobs) -> server "
              f"{args.server}")
    else:
        try:
            spec = SearchSpec.load(args.spec)
        except (OSError, ValueError) as exc:
            print(f"run_search: cannot load spec {args.spec}: {exc}",
                  file=sys.stderr)
            return 2
        specs = {spec.job_name("search"): spec}
        print(f"spec: {args.spec} -> server {args.server}")
    for name, spec in specs.items():
        _describe(name, spec)

    client = SearchClient(args.server, token=args.token,
                          reconnect_s=args.reconnect_s)
    submitted: dict[str, str] = {}
    with client:
        for name, spec in specs.items():
            reply = client.submit(spec, priority=args.priority, job=name)
            marker = " [cache replay]" if reply.get("cached") else ""
            print(f"  [{name}] -> job {reply['job']} "
                  f"({reply['state']}){marker}")
            submitted[name] = reply["job"]

        records: dict[str, dict] = {}
        replayed: set[str] = set()
        failures: list[str] = []
        for name, job in submitted.items():
            def _progress(frame, name=name):
                data = frame.get("data", {})
                if frame.get("event") == "progress":
                    best = data.get("best_fitness")
                    best_text = (f"{best:.6f}"
                                 if isinstance(best, float) else best)
                    print(f"  [{name}] batch {data.get('seq')}: "
                          f"{data.get('evaluations')} evaluations, "
                          f"best {best_text}", flush=True)
            try:
                record = client.wait(job, on_event=_progress)
            except ServerError as exc:
                print(f"run_search: job {name!r}: {exc}", file=sys.stderr)
                failures.append(name)
                continue
            records[name] = record
            if client.status(job).get("cached"):
                replayed.add(name)
            print(f"[{name}]")
            _print_record(record, cached=name in replayed)

    if args.out is not None:
        if args.sweep is not None:
            payload = {"sweep": str(args.sweep), "jobs": records}
        else:
            payload = next(iter(records.values()), {})
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n")
        print(f"record written to {args.out}")
    if failures:
        return 1
    bad = [name for name, rec in records.items()
           if not math.isfinite(rec["fitness"])]
    if bad:
        print(f"run_search: non-finite fitness in job(s) {bad}",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", type=Path,
                        help="path to a SearchSpec JSON file")
    source.add_argument("--sweep", type=Path,
                        help="path to a sweep JSON file (one base spec "
                             "x a parameter grid)")
    parser.add_argument("--backend", default=None,
                        help="override the executor backend "
                             "(serial/process/remote)")
    parser.add_argument("--workers", type=int, default=None,
                        help="override the executor worker count")
    parser.add_argument("--addresses", default=None,
                        help="comma-separated host:port worker addresses "
                             "(remote backend)")
    parser.add_argument("--token", default=None,
                        help="worker auth token (remote backend)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="replay identical specs from this result "
                             "cache (keyed by SearchSpec.digest())")
    parser.add_argument("--out", type=Path, default=None,
                        help="write a JSON record of spec(s) + result(s)")
    parser.add_argument("--server", default=None, metavar="HOST:PORT",
                        help="submit to a running scripts/run_server.py "
                             "daemon instead of executing locally "
                             "(--token authenticates to the server; the "
                             "executor lives server-side)")
    parser.add_argument("--priority", type=int, default=0,
                        help="queue priority for --server submissions "
                             "(higher runs earlier)")
    parser.add_argument("--reconnect-s", type=float, default=120.0,
                        help="how long --server mode redials a "
                             "restarting daemon before giving up")
    args = parser.parse_args(argv)

    if args.server is not None:
        rejected = [flag for flag, value in (
            ("--backend", args.backend),
            ("--workers", args.workers),
            ("--addresses", args.addresses),
            ("--cache-dir", args.cache_dir),
        ) if value is not None]
        if rejected:
            print(f"run_search: {', '.join(rejected)} cannot be combined "
                  "with --server (the executor and the result cache live "
                  "server-side)", file=sys.stderr)
            return 2

    try:
        if args.server is not None:
            return _run_remote(args)
        if args.sweep is not None:
            return _run_sweep(args)
        return _run_single(args)
    except (ValueError, ConnectionError) as exc:
        # bad executor overrides (remote without addresses) and
        # unreachable/refusing workers or servers land here, with context
        print(f"run_search: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
