"""Seeded model builds are atomic across threads.

Registry loaders reseed the shared parameter-init RNG and then build.
Threads that build replicas at the same time (an in-process worker
fleet) must each get the weights a lone serial load gets.
"""

import sys
import threading

import numpy as np
import pytest

from repro.models.tiny import TinyResNet
from repro.parallel import EvaluatorSpec
from repro.quant import collect_layer_stats
from repro.spec import registry

THREADS = 4
LOADS = 10


def _weights(model):
    return {k: v.tobytes() for k, v in model.state_dict().items()}


def _hammer(target, n_threads=THREADS):
    """Run ``target(i)`` on threads ``i < n_threads``, released together,
    with a short switch interval so an unguarded build gets split."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def run(i):
        try:
            barrier.wait()
            target(i)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]


@pytest.mark.parametrize("name", ["bench:resnet", "tiny:resnet"])
def test_concurrent_registry_loads_match_serial(name):
    load = registry.resolve("model", name)
    want = _weights(load())
    results = []

    def loads(_):
        for _ in range(LOADS):
            results.append(_weights(load()))

    _hammer(loads)
    assert len(results) == THREADS * LOADS
    assert all(got == want for got in results)


def test_unseeded_replica_builds_cannot_split_a_seeded_build():
    """A replica built from a plain class draws from the same RNG; its
    draws must not land between a loader's reseed and its build."""
    load = registry.resolve("model", "tiny:resnet")
    model = load()
    want = _weights(model)
    images = np.zeros((2, 3, 8, 8), dtype=np.float32)
    spec = EvaluatorSpec(
        images=images,
        builder=TinyResNet,
        state=model.state_dict(),
        stats=collect_layer_stats(model, images),
    )
    results = []

    def work(i):
        for _ in range(3 * LOADS):
            if i % 2:
                spec.build()
            else:
                results.append(_weights(load()))

    _hammer(work)
    assert len(results) == THREADS // 2 * 3 * LOADS
    assert all(got == want for got in results)
