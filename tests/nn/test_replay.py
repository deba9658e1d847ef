"""Prefix-reuse forward cache (repro.nn.replay.ForwardCache)."""

import numpy as np
import pytest

from repro import nn
from repro.nn import ForwardCache, quantizable_layers, record_activations


class SmallCNN(nn.Module):
    def __init__(self):
        super().__init__()
        self.features = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1),
            nn.ReLU(),
            nn.Conv2d(4, 4, 3, padding=1),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(4, 8, 3, padding=1),
            nn.ReLU(),
        )
        self.pool = nn.GlobalAvgPool()
        self.head = nn.Linear(8, 4)

    def forward(self, x):
        return self.head(self.pool(self.features(x)))


@pytest.fixture()
def model():
    nn.seed(11)
    m = SmallCNN()
    m.eval()
    return m


@pytest.fixture()
def x():
    rng = np.random.default_rng(5)
    return rng.normal(size=(2, 3, 8, 8))


class TestForwardCache:
    def test_record_pass_matches_plain_forward(self, model, x):
        plain = model(x)
        cache = ForwardCache(model)
        np.testing.assert_array_equal(cache.forward(x), plain)
        assert cache.primed

    def test_nothing_dirty_replays_final_output(self, model, x):
        cache = ForwardCache(model)
        out = cache.forward(x)
        before = cache.calls_computed
        replayed = cache.forward(x, dirty=None)
        np.testing.assert_array_equal(replayed, out)
        assert cache.calls_computed == before  # nothing executed

    def test_suffix_recomputed_after_weight_change(self, model, x):
        layers = quantizable_layers(model)
        cache = ForwardCache(model)
        cache.forward(x)
        # change the second conv's weights through the fq override
        _, dirty_layer = layers[1]
        dirty_layer.weight_fq = dirty_layer.weight.data * 0.5
        fast = cache.forward(x, dirty=dirty_layer)
        plain = model(x)  # uncached ground truth, same override installed
        np.testing.assert_array_equal(fast, plain)
        assert cache.calls_replayed > 0
        dirty_layer.clear_quant()

    def test_repeated_incremental_passes_stay_exact(self, model, x):
        layers = quantizable_layers(model)
        cache = ForwardCache(model)
        cache.forward(x)
        rng = np.random.default_rng(0)
        for _ in range(4):
            idx = int(rng.integers(0, len(layers)))
            _, layer = layers[idx]
            layer.weight_fq = layer.weight.data * float(rng.uniform(0.5, 1.5))
            np.testing.assert_array_equal(
                cache.forward(x, dirty=layer), model(x)
            )

    def test_hooks_fire_for_executed_suffix_layers(self, model, x):
        layers = quantizable_layers(model)
        names = [n for n, _ in layers]
        cache = ForwardCache(model)
        cache.forward(x)
        _, dirty_layer = layers[1]
        suffix = names[1:]
        with record_activations(model, suffix) as acts:
            cache.forward(x, dirty=dirty_layer)
        assert set(acts) == set(suffix)

    def test_different_input_forces_full_recompute(self, model, x):
        cache = ForwardCache(model)
        cache.forward(x)
        other = x + 1.0
        np.testing.assert_array_equal(
            cache.forward(other, dirty=None), model(other)
        )

    def test_aborted_replay_pass_unprimes_cache(self, model, x):
        layers = quantizable_layers(model)
        cache = ForwardCache(model)
        cache.forward(x)
        _, dirty_layer = layers[1]
        _, last_layer = layers[-1]

        def boom(_mod, _out):
            raise RuntimeError("hook failure mid-pass")

        remove = last_layer.add_forward_hook(boom)
        dirty_layer.weight_fq = dirty_layer.weight.data * 0.5
        with pytest.raises(RuntimeError):
            cache.forward(x, dirty=dirty_layer)
        remove()
        # the aborted pass mixed old and new outputs: it must not be
        # usable as a replay reference
        assert not cache.primed
        np.testing.assert_array_equal(
            cache.forward(x, dirty=dirty_layer), model(x)
        )
        dirty_layer.clear_quant()

    def test_invalidate_drops_cached_pass(self, model, x):
        cache = ForwardCache(model)
        cache.forward(x)
        cache.invalidate()
        assert not cache.primed
        records_before = cache.record_passes
        cache.forward(x, dirty=None)  # must re-record, not replay
        assert cache.record_passes == records_before + 1


class SharedModuleNet(nn.Module):
    """Calls the same Linear twice — unsupported for replay."""

    def __init__(self):
        super().__init__()
        self.lin = nn.Linear(4, 4)

    def forward(self, x):
        return self.lin(self.lin(x))


class TestUnsupportedModels:
    def test_module_called_twice_falls_back_to_full_compute(self):
        nn.seed(3)
        net = SharedModuleNet()
        net.eval()
        x = np.random.default_rng(1).normal(size=(2, 4))
        cache = ForwardCache(net)
        out = cache.forward(x)
        np.testing.assert_array_equal(out, net(x))
        assert not cache.primed  # replay disabled, correctness kept
        np.testing.assert_array_equal(
            cache.forward(x, dirty=net.lin), net(x)
        )


class TestThreadIsolation:
    """The active-replay state must be thread-local: in-process workers
    (a local worker fleet) run one replica (and one ForwardCache) per
    thread."""

    def test_active_replay_not_visible_across_threads(self, model, x):
        import threading

        from repro.nn import module as _module

        cache = ForwardCache(model)
        prev = cache._activate()
        try:
            assert _module._REPLAY.active is cache
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(_module._REPLAY.active)
            )
            thread.start()
            thread.join()
            assert seen == [None]  # other threads run plain forwards
        finally:
            _module._REPLAY.active = prev

    def test_concurrent_cached_forwards_stay_correct(self):
        """Two models replaying concurrently in two threads must each
        produce exactly what they produce serially."""
        import threading

        nn.seed(17)
        models = [SmallCNN() for _ in range(2)]
        for m in models:
            m.eval()
        x = np.random.default_rng(9).normal(size=(2, 3, 8, 8))
        expected = [m(x) for m in models]
        caches = [ForwardCache(m) for m in models]
        for cache in caches:
            cache.forward(x)  # record passes

        failures = []
        barrier = threading.Barrier(2)

        def worker(idx):
            try:
                barrier.wait()
                for _ in range(25):
                    dirty = quantizable_layers(models[idx])[1][1]
                    out = caches[idx].forward(x, dirty=dirty)
                    np.testing.assert_array_equal(out, expected[idx])
            except Exception as exc:  # pragma: no cover - failure path
                failures.append((idx, exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
