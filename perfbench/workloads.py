"""The benchmark's workloads, each a closed loop over public entry points.

* ``search_cnn`` — back-to-back ``lpq_quantize(spec=...)`` calls on
  ``bench:resnet`` (calib 16, ``bench_config`` budget, serial fast path).
* ``search_vit_process`` — the same call on ``bench:vit`` with
  ``ExecutorConfig("process", workers=2)``; every call starts its own pool.
* ``daemon_sweep`` — two ``SearchClient`` connections loop on ``submit`` +
  ``wait`` against an in-process ``SearchServer`` (telemetry and time
  series on) over two ``WorkerServer`` processes on localhost (worker
  telemetry off): fresh tiny specs, interleaved with resubmits of
  finished ones.

The workload seed decides every spec; the program only sees the specs.
The search workloads' timed loop holds ``lpq_quantize`` calls only.

Every result is checked against a reference run of the same spec (see
``reference_spec``); references are computed after the timed passes and
never timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import repro
import repro.perf.bench  # noqa: F401  (registers the bench:* models)
from repro.parallel import ExecutorConfig
from repro.perf.bench import bench_config
from repro.quant import FitnessConfig, LPQConfig, lpq_quantize
from repro.serve.store import result_record
from repro.spec import CalibSpec, SearchSpec

#: record fields a reference run must reproduce bit for bit
CHECKED = ("solution", "fitness", "evaluations")

#: an operation still running this long after the pass ended has failed
OP_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One closed-loop operation: a fresh search/job or a replay."""

    kind: str  # "fresh" | "replay"
    key: int  # spec identity within the run
    latency: float
    record: dict | None
    error: str | None = None


@dataclass
class Pass:
    ops: list[Op]
    wall: float
    #: fresh operations per closed-loop caller
    fresh_per_caller: list[int] = field(default_factory=list)


def reference_record(spec_dict: dict) -> dict:
    """Run one spec directly and return the checked record fields."""
    spec = SearchSpec.from_dict(spec_dict)
    start = time.perf_counter()
    try:
        result = lpq_quantize(spec=spec)
    except Exception as exc:  # the failed spec is reported, others go on
        return {"error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - start
    record = result_record(spec, result, wall)
    return {**{k: record[k] for k in CHECKED}, "wall_s": wall}


def _source_digest() -> str:
    """Hash of the program's source tree: reference records computed by
    other code are never reused."""
    src = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_references(specs: dict, processes: int, cache_dir: Path) -> dict:
    """``{key: reference_record(spec)}``, on ``processes`` spawned
    workers (or in this process when ``processes`` is 1).

    Records are cached in ``cache_dir`` under the spec and the source
    digest, so a spec every run shares is computed once per checkout.
    """
    source = _source_digest()
    paths = {
        k: cache_dir / hashlib.sha256(
            (source + spec.to_json()).encode()).hexdigest()
        for k, spec in specs.items()
    }
    refs = {k: json.loads(p.read_text()) for k, p in paths.items()
            if p.exists()}
    todo = sorted(k for k in specs if k not in refs)
    payloads = [specs[k].to_dict() for k in todo]
    if processes <= 1 or len(todo) <= 1:
        computed = [reference_record(p) for p in payloads]
    else:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(processes, mp_context=ctx) as pool:
            computed = list(pool.map(reference_record, payloads))
    cache_dir.mkdir(parents=True, exist_ok=True)
    for k, record in zip(todo, computed):
        refs[k] = record
        if "error" not in record:
            tmp = paths[k].with_suffix(".tmp")
            tmp.write_text(json.dumps(record))
            tmp.replace(paths[k])
    return refs


def check_ops(passes: list[Pass], references: dict,
              fresh_records: dict) -> tuple[int, list[str]]:
    """``(attempted, [failure messages])`` over every operation: fresh
    results must match their reference, replays their fresh record."""
    failures = []
    attempted = 0
    for p in passes:
        for op in p.ops:
            attempted += 1
            if op.error is not None:
                failures.append(f"{op.kind} {op.key}: {op.error}")
            elif op.kind == "fresh":
                ref = references.get(op.key, {})
                if any(op.record.get(k) != ref.get(k) for k in CHECKED):
                    failures.append(
                        f"fresh {op.key}: result differs from reference "
                        f"({ref.get('error', 'mismatch')})"
                    )
            elif op.record != fresh_records.get(op.key):
                failures.append(f"replay {op.key}: record differs")
    return attempted, failures


class SearchWorkload:
    """Back-to-back ``lpq_quantize`` calls over a seeded pool of specs."""

    #: two specs per run: a fixed anchor (index 0) and one the workload
    #: seed draws (index 1).  A run repeats this cycle in whole cycles;
    #: the anchor's majority keeps runs of different seeds comparable
    #: (search times differ by up to 20% between spec seeds)
    cycle = (0, 1, 0)
    anchor_seed = 0
    #: reference runs in parallel, or serially here (which also times
    #: the serial path for the derived speedup)
    reference_processes = 2

    def __init__(self, name: str, model: str, executor, seed: int,
                 scratch: Path) -> None:
        self.name = name
        self.executor = executor
        rng = np.random.default_rng(seed)
        seeds = [self.anchor_seed, int(rng.integers(1, 1_000_000))]
        self.specs = {
            i: SearchSpec(
                model=model, calib=CalibSpec(batch=16, seed=1),
                config=bench_config(0), executor=executor, seed=int(s),
                name=f"{name}-{int(s)}",
            )
            for i, s in enumerate(seeds)
        }
        self.cache_dir = scratch.parent / "references"

    @property
    def workers(self) -> int:
        return self.executor.workers if self.executor else 1

    def setup(self) -> None:
        lpq_quantize(spec=self.specs[0])  # warm-up

    def close(self) -> None:
        pass

    def run_pass(self, seconds: float | None = None,
                 counts: list[int] | None = None, tracer=None) -> Pass:
        """Run for ``seconds`` (in whole cycles) or for exactly
        ``counts[0]`` searches."""
        count = counts[0] if counts is not None else None
        ops: list[Op] = []
        start = time.perf_counter()
        i = 0
        while (i < count) if count is not None else (
            time.perf_counter() - start < seconds or i % len(self.cycle)
        ):
            key = self.cycle[i % len(self.cycle)]
            spec = self.specs[key]
            if tracer is not None:
                tracer.set_job(f"{self.name}/{i}")
            t = time.perf_counter()
            try:
                record = result_record(spec, lpq_quantize(spec=spec))
                error = None
            except Exception as exc:  # a raising call is a failed op
                record, error = None, f"{type(exc).__name__}: {exc}"
            ops.append(Op("fresh", key, time.perf_counter() - t, record,
                          error))
            i += 1
        return Pass(ops, time.perf_counter() - start, [i])

    def reference_spec(self, spec: SearchSpec) -> SearchSpec:
        """The serial in-process search of the same spec."""
        return replace(spec, executor=None)

    def compute_specs(self, traced: Pass) -> list[SearchSpec]:
        """Specs to re-run serially under the tracer because the traced
        pass evaluated candidates in other processes (none here)."""
        if self.executor is None:
            return []
        return [replace(s, executor=None) for s in self.specs.values()]

    def references(self, keys) -> dict:
        specs = {k: self.reference_spec(self.specs[k]) for k in keys}
        return run_references(specs, self.reference_processes,
                              self.cache_dir)


class CnnSearch(SearchWorkload):
    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__("search_cnn", "bench:resnet", None, seed, scratch)

    def reference_spec(self, spec: SearchSpec) -> SearchSpec:
        # the reference evaluation path, not the incremental engine
        return replace(spec, fitness=FitnessConfig(fast=False))


class VitProcessSearch(SearchWorkload):
    reference_processes = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__("search_vit_process", "bench:vit",
                         ExecutorConfig("process", workers=2), seed, scratch)


#: the small search budget of daemon jobs
TINY_CONFIG = LPQConfig(population=4, passes=1, cycles=1, block_size=2,
                        diversity_parents=2, hw_widths=(4, 8))
#: fresh daemon jobs alternate between these (model, objective) pairs
TINY_MODELS = (("tiny:mlp", "mse"), ("tiny:resnet", "global_local_contrastive"))


def _worker_main(conn) -> None:
    """Body of one fleet process: a ``WorkerServer`` on an ephemeral
    localhost port, until the parent says stop (or goes away)."""
    from repro.serve.remote import WorkerServer

    server = WorkerServer().start()
    try:
        conn.send(server.address)
        conn.recv()
    except (EOFError, OSError):
        pass
    finally:
        server.stop()


@contextlib.contextmanager
def process_fleet(count: int):
    """``count`` worker processes on localhost; yields their addresses.

    Separate processes rather than ``local_worker_fleet`` threads: model
    loaders seed the process-global init RNG (``nn.seed``) and build
    from it, so two in-process workers building replicas at once can
    draw each other's numbers and score different weights.
    """
    ctx = multiprocessing.get_context("spawn")
    procs, conns = [], []
    try:
        for _ in range(count):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child,),
                               name="bench-worker", daemon=True)
            proc.start()
            child.close()
            procs.append(proc)
            conns.append(parent)
        addresses = []
        for conn in conns:
            if not conn.poll(OP_TIMEOUT_S):
                raise RuntimeError("fleet worker did not start")
            addresses.append(conn.recv())
        yield addresses
    finally:
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.send("stop")
            conn.close()
        for proc in procs:
            proc.join(OP_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                proc.join()


class DaemonSweep:
    """Two closed-loop clients against an in-process daemon + fleet."""

    name = "daemon_sweep"
    clients = 2
    #: fleet size
    workers = 2
    #: resubmits of finished specs after each fresh job
    replays = 6
    reference_processes = 2

    def __init__(self, seed: int, scratch: Path,
                 fail_at: int | None = None) -> None:
        self.scratch = scratch
        self.cache_dir = scratch.parent / "references"
        self.base = int(np.random.default_rng(seed).integers(1, 2**30))
        self.rngs = [np.random.default_rng([seed, c])
                     for c in range(self.clients)]
        self.issued = [0] * self.clients
        self.done: list[list[int]] = [[] for _ in range(self.clients)]
        self.specs: dict[int, SearchSpec] = {}
        self.fresh_records: dict = {}
        #: test hook: client 0's fresh job number ``fail_at`` names a
        #: model no registry knows, so the daemon fails it
        self.fail_at = fail_at
        self._stack = contextlib.ExitStack()
        self.server = None

    def _spec(self, key: int, model_idx: int, model=None) -> SearchSpec:
        name, objective = TINY_MODELS[model_idx]
        spec = SearchSpec(model=model or name,
                          calib=CalibSpec(batch=8, seed=1),
                          config=TINY_CONFIG, objective=objective, seed=key)
        self.specs[key] = spec
        return spec

    def _next_fresh(self, client: int) -> tuple[int, SearchSpec]:
        j = self.issued[client]
        self.issued[client] += 1
        key = self.base + self.clients * j + client
        broken = client == 0 and j == self.fail_at
        return key, self._spec(key, (j + client) % len(TINY_MODELS),
                               "tiny:missing" if broken else None)

    def setup(self) -> None:
        from repro.serve.server import SearchClient, SearchServer

        addresses = self._stack.enter_context(process_fleet(self.workers))
        self.server = self._stack.enter_context(SearchServer(
            data_dir=self.scratch / "daemon",
            executor=ExecutorConfig("remote", addresses=addresses),
            metrics_interval=0.25,
            timeseries=self.scratch / "timeseries",
        ))
        self._clients = [
            self._stack.enter_context(
                SearchClient(self.server.address, reconnect_s=2.0))
            for _ in range(self.clients)
        ]
        warm = self._spec(self.base - 1, 0)
        for _ in range(2):  # one fresh job, one replay
            client = self._clients[0]
            client.wait(client.submit(warm)["job"])

    def close(self) -> None:
        self._stack.close()

    def _job(self, client: int, kind: str, key: int) -> Op:
        conn = self._clients[client]
        t = time.perf_counter()
        try:
            record = conn.wait(conn.submit(self.specs[key])["job"])
            error = None
        except Exception as exc:  # ServerError / lost daemon: failed op
            record, error = None, f"{type(exc).__name__}: {exc}"
        return Op(kind, key, time.perf_counter() - t, record, error)

    def _loop(self, client: int, deadline, count, ops: list,
              fresh: list, tracer) -> None:
        n = 0
        while (n < count) if count is not None else (
            time.perf_counter() < deadline
        ):
            key, _ = self._next_fresh(client)
            if tracer is not None:
                tracer.set_job(f"{self.name}/{key}")
            op = self._job(client, "fresh", key)
            ops.append(op)
            if op.record is not None:
                self.fresh_records[key] = op.record
                self.done[client].append(key)
            rng = self.rngs[client]
            for _ in range(self.replays if self.done[client] else 0):
                done = self.done[client]
                ops.append(self._job(
                    client, "replay", done[int(rng.integers(len(done)))]))
            n += 1
        fresh[client] = n

    def run_pass(self, seconds: float | None = None,
                 counts: list[int] | None = None, tracer=None) -> Pass:
        """Run every client until ``seconds`` pass, or client ``c`` for
        exactly ``counts[c]`` fresh jobs."""
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else None
        per_client = [[] for _ in range(self.clients)]
        fresh = [0] * self.clients
        threads = [
            threading.Thread(
                target=self._loop, name=f"bench-client-{c}",
                args=(c, deadline,
                      None if counts is None else counts[c],
                      per_client[c], fresh, tracer),
            )
            for c in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        limit = (seconds or 0.0) + OP_TIMEOUT_S * (1 + max(counts or [0]))
        for thread in threads:
            thread.join(max(0.0, start + limit - time.perf_counter()))
        ops = [op for client_ops in per_client for op in client_ops]
        if any(thread.is_alive() for thread in threads):
            ops.append(Op("fresh", -1, limit, None, "timeout"))
            self.server.kill()  # unblocks the stuck clients
            for thread in threads:
                thread.join(OP_TIMEOUT_S)
        return Pass(ops, time.perf_counter() - start, fresh)

    def references(self, keys) -> dict:
        specs = {k: self.specs[k] for k in keys if k in self.specs}
        return run_references(specs, self.reference_processes,
                              self.cache_dir)

    def compute_specs(self, traced: Pass) -> list[SearchSpec]:
        """The traced pass's fresh specs: their candidates were scored
        in the fleet processes, out of the tracer's reach."""
        return [self.specs[op.key] for op in traced.ops
                if op.kind == "fresh" and op.error is None]


WORKLOADS = {
    "search_cnn": CnnSearch,
    "search_vit_process": VitProcessSearch,
    "daemon_sweep": DaemonSweep,
}
