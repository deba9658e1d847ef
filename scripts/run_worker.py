#!/usr/bin/env python
"""Run one standalone LPQ evaluation worker (the remote-backend server).

A worker is a long-lived TCP server speaking the length-prefixed JSON
frame protocol of ``repro.spec.wire``: clients (the ``remote`` executor
backend — ``ExecutorConfig(backend="remote", addresses=[...])``)
handshake with an optional shared-secret token, register search jobs as
plain-JSON wire payloads, and stream candidate chunks at it; the worker
streams fitness results back as each chunk completes.  Evaluation is
deterministic, so any fleet of these workers produces results
bitwise-identical to a serial in-process run.

Usage::

    PYTHONPATH=src python scripts/run_worker.py --port 7301
    PYTHONPATH=src python scripts/run_worker.py --host 0.0.0.0 \
        --port 7301 --token s3cret

The shared token may also come from the ``REPRO_WORKER_TOKEN``
environment variable (the flag wins).  A client whose numerics
fingerprint (numpy version, SIMD level, OpenBLAS core, kernel canary)
differs from the worker's is refused at the handshake, since the two
would not compute the same bits.  The worker prints one
``worker listening on host:port`` line once it is accepting
connections — CI and launch scripts key readiness off it — and then
serves until interrupted.

``SIGTERM`` (the fleet-manager stop signal) drains gracefully: the
worker announces it is leaving so clients stop dispatching to it,
finishes every chunk it already accepted, then exits — no chunk is
lost, and the clients requeue anything that raced in after the
announcement.  ``SIGINT``/Ctrl-C stops abruptly (clients requeue all
in-flight chunks onto the rest of the fleet).

The worker runs its BLAS on one thread (it evaluates one chunk at a
time), so start one worker per core to use a host's cores.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.serve.remote import WorkerServer  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1; use "
                             "0.0.0.0 to serve other hosts)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to listen on (default 0: ephemeral)")
    parser.add_argument("--token", default=None,
                        help="shared auth token clients must present "
                             "(default: $REPRO_WORKER_TOKEN, else none)")
    parser.add_argument("--blob-cache", default=None, metavar="DIR",
                        help="directory for the content-addressed blob "
                             "cache; blobs persist on disk so a restarted "
                             "worker rehydrates tensors without refetching")
    parser.add_argument("--metrics-interval", type=float, default=0.0,
                        metavar="SECONDS",
                        help="push one telemetry delta frame to every "
                             "connected client each SECONDS (0 = off, "
                             "the default)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-connection log lines")
    args = parser.parse_args(argv)

    token = args.token
    if token is None:
        token = os.environ.get("REPRO_WORKER_TOKEN") or None
    server = WorkerServer(
        host=args.host, port=args.port, token=token,
        verbose=not args.quiet, blob_cache=args.blob_cache,
        metrics_interval=args.metrics_interval,
    ).start()
    print(f"worker listening on {server.address}", flush=True)

    def _drain(signum, frame):
        # SIGTERM = graceful retirement: finish in-flight, refuse new
        print("worker draining (SIGTERM)", flush=True)
        server.drain()

    signal.signal(signal.SIGTERM, _drain)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("worker shutting down", flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
