"""Workers reuse a finished job's evaluator replica.

A replica depends only on its job's evaluator identity: model,
calibration batch, fitness config, objective, activation mode and layer
statistics, never the GA config or seed.  So a worker keeps a released
job's replica idle, with its caches dropped, and the next job with the
same identity takes it instead of building one.  These tests pin:

* reuse moves no bit: back-to-back jobs through one socket worker each
  equal their serial run, and the second counts a ``worker.replicas``
  hit;
* any identity field that differs builds a new replica, and so does a
  model name registered again;
* an idle replica holds no evaluation cache and no forward state;
* a replica whose evaluation raised, an ``"evaluator"`` payload and a
  table without an idle set never reuse;
* the idle set stays within :data:`IDLE_REPLICAS` and counts evictions.
"""

import time

import pytest

from repro.parallel import EvaluatorSpec, ExecutorConfig
from repro.parallel.executor import (
    IDLE_REPLICAS,
    _IdleReplicas,
    _ReplicaTable,
    replica_identity,
)
from repro.perf import PerfRegistry
from repro.quant import FitnessConfig, lpq_quantize
from repro.serve import SearchScheduler
from repro.serve.remote import WorkerServer
from repro.spec import CalibSpec, SearchSpec, registry
from repro.spec.wire import encode_job

from .conftest import SEARCH
from .test_pool import _candidates

CALIB = CalibSpec(batch=4, seed=3)
DEFAULT = "global_local_contrastive"


def _search(seed=1, calib=CALIB, fitness=None, objective="mse",
            model="tiny:mlp"):
    return SearchSpec(model=model, calib=calib, config=SEARCH,
                      fitness=fitness, objective=objective, seed=seed)


def _payload(search):
    """The ``"search"`` wire payload a scheduler sends for ``search``."""
    from repro.quant import collect_layer_stats

    model, images = search.build_model(), search.build_calib()
    espec = EvaluatorSpec(
        images=images, model=model, config=search.fitness,
        objective=None if search.objective == DEFAULT else search.objective,
        act_mode=search.act_sf_mode,
        stats=collect_layer_stats(model, images),
    )
    return espec, encode_job(espec, search)


def _replicas(perf) -> dict:
    return perf["caches"].get(
        "worker.replicas", {"hits": 0, "misses": 0, "evictions": 0}
    )


def _run_on(address, search):
    scheduler = SearchScheduler(
        executor=ExecutorConfig("remote", addresses=[address]),
        perf=PerfRegistry(),
    )
    handle = scheduler.submit("job", spec=search)
    scheduler.run()
    return handle


def _wait_idle(server, count, timeout=10.0):
    """A pool's last ``release`` is handled just after its ``bye``:
    wait until the worker has ``count`` idle replicas."""
    deadline = time.monotonic() + timeout
    while len(server.idle_replicas.replicas()) < count:
        assert time.monotonic() < deadline, "release never handled"
        time.sleep(0.01)


def _same(got, ref):
    return (
        got.solution == ref.solution
        and got.fitness == ref.fitness
        and got.history.best_fitness == ref.history.best_fitness
        and got.evaluations == ref.evaluations
    )


class TestSocketWorkerReuse:
    def test_back_to_back_jobs_reuse_one_replica(self):
        """Two jobs that differ only in seed, each on its own pool (so
        on its own session) of one worker: the second takes the first
        one's replica, and both equal their serial runs bitwise."""
        first, second = _search(seed=1), _search(seed=2)
        serial = [lpq_quantize(spec=s) for s in (first, second)]
        with WorkerServer() as server:
            a = _run_on(server.address, first)
            _wait_idle(server, 1)
            b = _run_on(server.address, second)
        assert _same(a.result(), serial[0])
        assert _same(b.result(), serial[1])
        assert a.result().solution != b.result().solution
        assert _replicas(a.perf)["misses"] == 1
        assert _replicas(a.perf)["hits"] == 0
        assert _replicas(b.perf)["hits"] == 1
        assert _replicas(b.perf)["misses"] == 0
        # the worker's own telemetry sees the build and the reuse
        worker = server.perf.snapshot()["caches"]["worker.replicas"]
        assert (worker["hits"], worker["misses"]) == (1, 1)

    @pytest.mark.parametrize("other", [
        _search(seed=2, calib=CalibSpec(batch=4, seed=4)),
        _search(seed=2, fitness=FitnessConfig(tau=0.1)),
    ], ids=["calib-seed", "fitness-tau"])
    def test_another_identity_builds_a_new_replica(self, other):
        with WorkerServer() as server:
            _run_on(server.address, _search(seed=1))
            _wait_idle(server, 1)
            handle = _run_on(server.address, other)
            _wait_idle(server, 2)
        assert handle.done
        assert _replicas(handle.perf)["misses"] == 1
        assert _replicas(handle.perf)["hits"] == 0
        assert _same(handle.result(), lpq_quantize(spec=other))


class TestIdentity:
    def test_search_fields_that_reach_the_evaluator(self):
        _, base = _payload(_search(seed=1))
        identity = replica_identity(base)
        assert identity is not None
        # GA config, seed and name never reach the replica
        _, other_seed = _payload(SearchSpec(
            model="tiny:mlp", calib=CALIB, objective="mse", seed=9,
            config=SEARCH, name="renamed",
        ))
        assert replica_identity(other_seed) == identity
        for changed in (
            _search(calib=CalibSpec(batch=4, seed=4)),
            _search(calib=CalibSpec(batch=5, seed=3)),
            _search(fitness=FitnessConfig(tau=0.1)),
            _search(objective=DEFAULT),
            _search(model="tiny:resnet"),
        ):
            assert replica_identity(_payload(changed)[1]) != identity
        stats = dict(base, stats=None)
        assert replica_identity(stats) != identity

    def test_a_name_registered_again_is_another_identity(self):
        from repro.models.tiny import tiny_mlp

        def rebuilt():
            return tiny_mlp()

        models = registry.registry("model")
        try:
            registry.register("model", "test:reuse", tiny_mlp)
            _, payload = _payload(_search(model="test:reuse"))
            identity = replica_identity(payload)
            assert replica_identity(payload) == identity
            registry.register("model", "test:reuse", rebuilt, replace=True)
            assert replica_identity(payload) != identity
        finally:
            # global registries outlive the test; leave no trace
            models._entries.pop("test:reuse", None)

    def test_payloads_that_never_reuse(self):
        espec, _ = _payload(_search())
        assert replica_identity(encode_job(espec)) is None  # "evaluator"
        assert replica_identity(espec) is None  # a live spec


class TestReplicaTable:
    def test_released_replica_serves_the_next_job_bitwise(self):
        espec, payload = _payload(_search())
        solutions = _candidates(espec, 3)
        fresh = _ReplicaTable({"a": payload})
        want = fresh.run("a", solutions)
        table = _ReplicaTable({"a": payload}, idle=_IdleReplicas())
        table.run("a", solutions[:2])
        table.release("a")
        (replica,) = table.idle.replicas()
        assert len(replica.evaluator._weight_cache) == 0
        assert not _forward_state(replica.evaluator.model)
        table.add("b", payload)
        got = table.run("b", solutions)
        assert table.replicas["b"][0] is replica
        assert got[0] == want[0]
        assert got[1]["caches"]["worker.replicas"]["hits"] == 1
        assert want[1]["caches"]["worker.replicas"]["misses"] == 1
        # apart from hit-for-miss, the reused replica's delta is a
        # fresh one's (a fresh registry also lists counters still at 0)
        untimed = [
            ({k: v for k, v in delta["caches"].items()
              if k != "worker.replicas"},
             {k: v for k, v in delta["counters"].items() if v})
            for delta in (got[1], want[1])
        ]
        assert untimed[0] == untimed[1]

    def test_failed_evaluation_is_never_reused(self):
        espec, payload = _payload(_search())
        table = _ReplicaTable({"a": payload}, idle=_IdleReplicas())
        assert table.run("a", _candidates(espec, 1))[3] is None
        fits, delta, _, error = table.run("a", [object()])
        assert fits is None and error is not None
        table.release("a")
        assert table.idle.replicas() == []

    def test_no_idle_set_means_no_reuse(self):
        espec, payload = _payload(_search())
        table = _ReplicaTable({"a": payload})
        table.run("a", _candidates(espec, 1))
        table.release("a")
        table.add("b", payload)
        delta = table.run("b", _candidates(espec, 1))[1]
        stats = delta["caches"]["worker.replicas"]
        assert (stats["hits"], stats["misses"]) == (0, 1)


def _forward_state(model) -> list[str]:
    """The modules of ``model`` that still hold forward state."""
    return [
        name for name, module in model.named_modules()
        if any(getattr(module, attr) is not None
               for attr in module._forward_state)
    ]


class _Stub:
    def __init__(self):
        self.evaluator = self.model = self
        self.resets = self.drops = 0

    def reset_caches(self):
        self.resets += 1

    def drop_forward_state(self):
        self.drops += 1


class TestIdleBound:
    def test_lru_bound_and_evictions(self):
        perf = PerfRegistry()
        idle = _IdleReplicas(perf=perf)
        stubs = [_Stub() for _ in range(IDLE_REPLICAS + 2)]
        # the last IDLE_REPLICAS stubs stay: one "a", then all "b"
        ids = ["a"] * 3 + ["b"] * (IDLE_REPLICAS - 1)
        for identity, stub in zip(ids, stubs):
            idle.put(identity, [stub])
        assert all(stub.resets == stub.drops == 1 for stub in stubs)
        assert idle.replicas() == stubs[2:]
        assert perf.cache("worker.replicas").evictions == 2
        # exclusive checkout, most recently released first
        assert idle.take("a") == [stubs[2]]
        assert idle.take("a") is None
        assert idle.take("b") == [stubs[-1]]
        assert idle.replicas() == stubs[3:-1]
