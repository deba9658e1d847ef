#!/usr/bin/env python
"""Run the always-on LPQ search daemon.

The server accepts client connections over the length-prefixed JSON
frame protocol of ``repro.spec.wire`` (the same framing the worker
fleet speaks): clients submit :class:`repro.spec.SearchSpec` payloads,
poll status, stream progress events, cancel, and fetch results —
``scripts/run_search.py --server HOST:PORT`` is the stock client.
Accepted jobs run on one :class:`repro.serve.SearchScheduler` over the
backend named by ``--backend`` (serial / process / remote), so one
daemon can front anything from an in-process pool to a remote worker
fleet.  A job accepted while others run joins them on the same pool at
the next chunk result; the pool (and a remote fleet's connections)
lasts until no job is left.

Jobs are durable under ``--data-dir``: an append-only journal plus a
``SearchSpec.digest()``-keyed result store.  Restarting the daemon on
the same directory recovers the queue — finished jobs replay from the
store with zero re-evaluation, interrupted jobs re-run
bitwise-identically.

Usage::

    PYTHONPATH=src python scripts/run_server.py --port 7400 \
        --data-dir /var/tmp/lpq-server
    PYTHONPATH=src python scripts/run_server.py --port 7400 \
        --data-dir /var/tmp/lpq-server \
        --backend remote --addresses 127.0.0.1:7301,127.0.0.1:7302

The client auth token may come from ``--token`` or
``$REPRO_SERVER_TOKEN``; the worker-fleet token (remote backend) from
``--worker-token`` or ``$REPRO_WORKER_TOKEN``.  The server prints one
``server listening on host:port`` line once it accepts connections —
CI and launch scripts key readiness off it.  ``SIGTERM`` stops
gracefully: the running jobs are interrupted at the next batch
boundary *without* terminal journal records, so they (and the jobs
still queued) re-run on the next start.  A crash (or ``SIGKILL``) at any point is recovered
the same way from the journal.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.parallel import ExecutorConfig, parse_address_list  # noqa: E402
from repro.serve.server import SearchServer  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1; use "
                             "0.0.0.0 to serve other hosts)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to listen on (default 0: ephemeral)")
    parser.add_argument("--token", default=None,
                        help="shared auth token clients must present "
                             "(default: $REPRO_SERVER_TOKEN, else none)")
    parser.add_argument("--data-dir", type=Path, required=True,
                        help="journal + result-store directory; restart "
                             "on the same directory to recover the queue")
    parser.add_argument("--backend", default="serial",
                        help="worker-pool backend for accepted jobs "
                             "(serial/process/remote)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count (process backend)")
    parser.add_argument("--addresses", default=None,
                        help="comma-separated host:port worker addresses "
                             "(remote backend)")
    parser.add_argument("--worker-token", default=None,
                        help="auth token for the remote worker fleet "
                             "(default: $REPRO_WORKER_TOKEN, else none)")
    parser.add_argument("--max-jobs-per-round", type=int, default=0,
                        help="cap on jobs in flight at once; the rest "
                             "wait in priority order (0 = no cap)")
    parser.add_argument("--metrics-interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="emit one merged fleet telemetry sample "
                             "each SECONDS to subscribed clients and "
                             "the time-series store (0 = off; "
                             "default 1.0)")
    parser.add_argument("--timeseries", type=Path, default=None,
                        metavar="DIR",
                        help="persist every fleet telemetry sample to "
                             "DIR/timeseries.jsonl (torn-tail-safe "
                             "JSONL; off by default)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-connection log lines")
    args = parser.parse_args(argv)

    token = args.token
    if token is None:
        token = os.environ.get("REPRO_SERVER_TOKEN") or None
    worker_token = args.worker_token
    if worker_token is None:
        worker_token = os.environ.get("REPRO_WORKER_TOKEN") or None
    addresses = None
    if args.addresses:
        addresses = parse_address_list(args.addresses)
    executor = ExecutorConfig(
        backend=args.backend,
        workers=args.workers,
        addresses=addresses,
        token=worker_token,
    )

    server = SearchServer(
        host=args.host, port=args.port, token=token,
        data_dir=args.data_dir, executor=executor,
        max_jobs_per_round=args.max_jobs_per_round,
        verbose=not args.quiet,
        metrics_interval=args.metrics_interval,
        timeseries=args.timeseries,
    ).start()
    print(f"server listening on {server.address}", flush=True)

    def _term(signum, frame):
        # SIGTERM = graceful stop: interrupt the running jobs at the
        # next batch boundary, journal no terminal records for them —
        # they and the queued jobs re-run on the next start
        print("server stopping (SIGTERM)", flush=True)
        server.stop()

    signal.signal(signal.SIGTERM, _term)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("server shutting down", flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
