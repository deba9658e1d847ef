"""WeightQuantCache: bitwise identity with uncached lp_quantize, identity
keying, LRU bookkeeping, its wiring into the incremental evaluator, and
end-to-end equivalence of cached and uncached quantized forwards.

Activations have no cache: ``input_fq`` is a plain ``lp_quantize``."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.nn import quantizable_layers
from repro.numerics import LPParams, lp_quantize
from repro.perf import CacheStats, PerfRegistry
from repro.quant import (
    FitnessConfig,
    FitnessEvaluator,
    QuantSolution,
    WeightQuantCache,
    apply_quantization,
    clear_quantization,
    collect_layer_stats,
    derive_activation_params,
    random_solution,
)
from repro.quant.quantizer import _install

PARAMS = LPParams(n=6, es=1, rs=3, sf=0.5)


def _layer(seed: int = 7):
    """The one attribute the cache reads: ``layer.weight.data``."""
    w = np.random.default_rng(seed).normal(0, 1.0, (6, 4, 3, 3))
    return SimpleNamespace(weight=SimpleNamespace(data=w.astype(np.float32)))


def _solution(model, stats, n=4):
    layers = quantizable_layers(model)
    return QuantSolution(
        tuple(LPParams(n, 1, 2, stats.weight_log_centers[i])
              for i in range(len(layers)))
    )


class TestEvaluatorWiring:
    """The evaluator's weight cache has a constant bound and reports
    through the perf registry, which is where the bench summary reads
    it from; ``FitnessConfig`` has no cache-size knobs."""

    def test_evaluator_weight_cache_has_constant_bound(
        self, tiny_model, calib_images
    ):
        stats = collect_layer_stats(tiny_model, calib_images)
        perf = PerfRegistry()
        evaluator = FitnessEvaluator(
            tiny_model, calib_images, stats.param_counts,
            FitnessConfig(fast=True), perf=perf,
        )
        assert evaluator._weight_cache.max_entries == 1024
        assert evaluator._weight_cache.stats is perf.cache(
            "quant.weight_cache"
        )

    def test_repeat_evaluation_hits_every_layer(
        self, tiny_model, calib_images
    ):
        stats = collect_layer_stats(tiny_model, calib_images)
        perf = PerfRegistry()
        evaluator = FitnessEvaluator(
            tiny_model, calib_images, stats.param_counts,
            FitnessConfig(fast=True), perf=perf,
        )
        rng = np.random.default_rng(5)
        sol = random_solution(
            rng, len(stats), stats.weight_log_centers, (2, 4, 8)
        )
        acts = derive_activation_params(sol, stats)
        first = evaluator(sol, acts)
        cache = perf.cache("quant.weight_cache")
        assert (cache.hits, cache.misses) == (0, len(stats))
        assert evaluator(sol, acts) == first
        assert (cache.hits, cache.misses) == (len(stats), len(stats))
        assert cache.evictions == 0
        assert set(perf.snapshot()["caches"]) == {"quant.weight_cache"}

    def test_fitness_config_rejects_removed_cache_knobs(self):
        from repro.spec import SearchSpec

        for knob in ("act_cache_entries", "weight_cache_entries"):
            with pytest.raises(TypeError):
                FitnessConfig(**{knob: 8})
            payload = {
                "model": "tiny:resnet",
                "fitness": {"fast": True, knob: 8},
            }
            with pytest.raises(ValueError, match=knob):
                SearchSpec.from_dict(payload)

    def test_fitness_round_trips_through_search_spec(self):
        from repro.spec import CalibSpec, SearchSpec

        spec = SearchSpec(
            model="tiny:resnet", calib=CalibSpec(batch=4, seed=3),
            fitness=FitnessConfig(fast=True, lam=0.15),
        )
        again = SearchSpec.from_dict(spec.to_dict())
        assert again.fitness == spec.fitness
        assert again.digest() == spec.digest()
        assert not any("cache" in k for k in spec.to_dict()["fitness"])


class TestBitwiseIdentity:
    def test_cached_equals_uncached(self):
        cache = WeightQuantCache(max_entries=4)
        layer = _layer()
        w = layer.weight.data
        direct = lp_quantize(w, PARAMS, dtype=w.dtype)
        miss = cache.quantized_weight(layer, PARAMS)
        np.testing.assert_array_equal(miss, direct)
        assert miss.dtype == w.dtype
        # the hit path returns the stored tensor itself
        hit = cache.quantized_weight(layer, PARAMS)
        assert hit is miss

    def test_entries_key_on_layer_identity(self):
        cache = WeightQuantCache(max_entries=4)
        layer = _layer()
        twin = SimpleNamespace(  # equal contents, different identity
            weight=SimpleNamespace(data=layer.weight.data.copy())
        )
        first = cache.quantized_weight(layer, PARAMS)
        second = cache.quantized_weight(twin, PARAMS)
        assert first is not second
        assert len(cache) == 2  # the twin occupied its own entry
        np.testing.assert_array_equal(first, second)

    def test_distinct_params_and_layers_are_distinct_entries(self):
        cache = WeightQuantCache(max_entries=8)
        a, b = _layer(1), _layer(2)
        other = LPParams(n=4, es=0, rs=2, sf=0.5)
        cache.quantized_weight(a, PARAMS)
        cache.quantized_weight(a, other)
        cache.quantized_weight(b, PARAMS)
        assert len(cache) == 3

    def test_prefill_matches_per_pair_path(self):
        layers = [_layer(s) for s in (1, 2, 3)]
        formats = [PARAMS, LPParams(n=4, es=0, rs=2, sf=0.5)]
        pairs = [(layer, p) for layer in layers for p in formats]
        stats = CacheStats("prefill")
        batched = WeightQuantCache(max_entries=16, stats=stats)
        # duplicates within the batch are computed once
        assert batched.prefill(pairs + pairs[:2]) == len(pairs)
        assert batched.prefill(pairs) == 0  # all cached now
        assert (stats.hits, stats.misses) == (0, len(pairs))
        single = WeightQuantCache(max_entries=16)
        for layer, p in pairs:
            got = batched.quantized_weight(layer, p)
            np.testing.assert_array_equal(
                got, single.quantized_weight(layer, p)
            )
            assert got.dtype == layer.weight.data.dtype
        assert stats.hits == len(pairs)


class TestBookkeeping:
    def test_lru_evicts_least_recently_used(self):
        stats = CacheStats("lru")
        cache = WeightQuantCache(max_entries=2, stats=stats)
        a, b, c = _layer(1), _layer(2), _layer(3)
        cache.quantized_weight(a, PARAMS)
        cache.quantized_weight(b, PARAMS)
        cache.quantized_weight(a, PARAMS)  # a is now most recent
        cache.quantized_weight(c, PARAMS)  # evicts b
        assert len(cache) == 2
        assert stats.evictions == 1
        hits = stats.hits
        cache.quantized_weight(a, PARAMS)
        assert stats.hits == hits + 1
        misses = stats.misses
        cache.quantized_weight(b, PARAMS)
        assert stats.misses == misses + 1

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            WeightQuantCache(max_entries=0)

    def test_stats_wiring(self):
        stats = CacheStats("weight")
        cache = WeightQuantCache(max_entries=1, stats=stats)
        layer = _layer()
        cache.quantized_weight(layer, PARAMS)
        cache.quantized_weight(layer, PARAMS)
        cache.quantized_weight(layer, LPParams(n=4, es=0, rs=2, sf=0.5))
        assert (stats.hits, stats.misses, stats.evictions) == (1, 2, 1)

    def test_clear(self):
        cache = WeightQuantCache(max_entries=4)
        layer = _layer()
        first = cache.quantized_weight(layer, PARAMS)
        cache.clear()
        assert len(cache) == 0
        # a lookup after clear recomputes into a fresh array
        again = cache.quantized_weight(layer, PARAMS)
        assert again is not first
        np.testing.assert_array_equal(again, first)


class TestEndToEnd:
    def test_forward_with_cached_weights_is_bitwise_identical(
        self, tiny_model, calib_images
    ):
        stats = collect_layer_stats(tiny_model, calib_images)
        sol = _solution(tiny_model, stats)
        acts = derive_activation_params(sol, stats)
        layers = quantizable_layers(tiny_model)
        cache = WeightQuantCache(max_entries=32)
        try:
            apply_quantization(tiny_model, sol, acts)
            plain = tiny_model(calib_images)
            _install(layers, sol, acts, cache)
            cached_once = tiny_model(calib_images)
            _install(layers, sol, acts, cache)  # every weight a hit now
            cached_again = tiny_model(calib_images)
        finally:
            clear_quantization(tiny_model)
        np.testing.assert_array_equal(plain, cached_once)
        np.testing.assert_array_equal(plain, cached_again)
        assert len(cache) == len(layers)

    def test_activation_quantizer_is_plain_lp_quantize(
        self, tiny_model, calib_images
    ):
        stats = collect_layer_stats(tiny_model, calib_images)
        sol = _solution(tiny_model, stats)
        acts = derive_activation_params(sol, stats)
        layers = quantizable_layers(tiny_model)
        x = np.random.default_rng(3).normal(0, 2.0, (2, 8, 4, 4)).astype(
            np.float32
        )
        try:
            apply_quantization(tiny_model, sol, acts)
            assert layers[0][1].input_fq is None
            for i, (_, layer) in enumerate(layers[1:], start=1):
                got = layer.input_fq(x)
                assert got.dtype == x.dtype
                np.testing.assert_array_equal(
                    got, lp_quantize(x, acts[i - 1], dtype=x.dtype)
                )
        finally:
            clear_quantization(tiny_model)
