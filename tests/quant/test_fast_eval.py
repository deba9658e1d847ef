"""Incremental fitness engine: bitwise equivalence with the reference path."""

import numpy as np
import pytest

from repro import nn
from repro.data import calibration_batch
from repro.quant import (
    FitnessConfig,
    FitnessEvaluator,
    LPQConfig,
    WeightQuantCache,
    collect_layer_stats,
    derive_activation_params,
    lpq_quantize,
    random_solution,
)


class TinyBNCNN(nn.Module):
    """Small BN CNN: exercises the fused recalibration pass."""

    def __init__(self):
        super().__init__()
        self.features = nn.Sequential(
            nn.Conv2d(3, 6, 3, padding=1, bias=False),
            nn.BatchNorm2d(6),
            nn.ReLU(),
            nn.Conv2d(6, 6, 3, padding=1, bias=False),
            nn.BatchNorm2d(6),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(6, 8, 3, padding=1, bias=False),
            nn.BatchNorm2d(8),
            nn.ReLU(),
        )
        self.pool = nn.GlobalAvgPool()
        self.head = nn.Linear(8, 8)

    def forward(self, x):
        return self.head(self.pool(self.features(x)))


@pytest.fixture(scope="module")
def bn_setup():
    nn.seed(21)
    model = TinyBNCNN()
    model.eval()
    images = calibration_batch(8, seed=9)
    stats = collect_layer_stats(model, images)
    return model, images, stats


def _candidates(stats, count=6, seed=0):
    """Random candidates plus block-wise related variants (search-like)."""
    rng = np.random.default_rng(seed)
    sols = [
        random_solution(rng, len(stats), stats.weight_log_centers, (2, 4, 8))
        for _ in range(count)
    ]
    # consecutive candidates differing in a single layer, as in the GA
    for i in range(1, count):
        if i % 2 == 0:
            sols[i] = sols[i - 1].replace_layer(
                len(stats) - 1, sols[0][len(stats) - 1]
            )
    return sols


class TestBitwiseEquivalence:
    def test_bn_model_fast_equals_reference(self, bn_setup):
        model, images, stats = bn_setup
        slow = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=False)
        )
        fast = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=True)
        )
        for sol in _candidates(stats):
            acts = derive_activation_params(sol, stats)
            assert slow(sol, acts) == fast(sol, acts)

    def test_bn_stats_restored_after_fast_eval(self, bn_setup):
        model, images, stats = bn_setup
        bns = [m for _, m in model.named_modules()
               if isinstance(m, nn.BatchNorm2d)]
        saved = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in bns]
        fast = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=True)
        )
        sol = _candidates(stats, count=1)[0]
        fast(sol, derive_activation_params(sol, stats))
        for bn, (mean, var) in zip(bns, saved):
            np.testing.assert_array_equal(bn.running_mean, mean)
            np.testing.assert_array_equal(bn.running_var, var)

    def test_ln_free_model_fast_equals_reference(self, tiny_model, calib_images):
        from repro.nn import quantizable_layers

        counts = [l.weight.size for _, l in quantizable_layers(tiny_model)]
        stats = collect_layer_stats(tiny_model, calib_images)
        slow = FitnessEvaluator(
            tiny_model, calib_images, counts, FitnessConfig(fast=False)
        )
        fast = FitnessEvaluator(
            tiny_model, calib_images, counts, FitnessConfig(fast=True)
        )
        for sol in _candidates(stats, count=4, seed=3):
            acts = derive_activation_params(sol, stats)
            assert slow(sol, acts) == fast(sol, acts)


class TestModuleWalks:
    """The fast path reuses the module lists its evaluator built once;
    evaluations walk no module tree (and stay bitwise the reference's)."""

    @pytest.mark.parametrize("bn", [True, False])
    def test_fast_evaluations_walk_no_module_tree(
        self, bn, bn_setup, tiny_model, calib_images, monkeypatch
    ):
        if bn:
            model, images, stats = bn_setup
        else:
            model, images = tiny_model, calib_images
            stats = collect_layer_stats(model, images)
        slow = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=False)
        )
        fast = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=True)
        )
        walks = []
        original = nn.Module.named_modules

        def counting(self, prefix=""):
            if not prefix:
                walks.append(self)
            return original(self, prefix)

        for sol in _candidates(stats, count=4, seed=5):
            acts = derive_activation_params(sol, stats)
            monkeypatch.setattr(nn.Module, "named_modules", counting)
            got = fast(sol, acts)
            monkeypatch.setattr(nn.Module, "named_modules", original)
            assert got == slow(sol, acts)
        assert walks == []
        assert all(not m.training for _, m in model.named_modules())


class TestResetCaches:
    def test_reset_caches_recomputes_identically(self, bn_setup):
        model, images, stats = bn_setup
        fast = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=True)
        )
        sol = _candidates(stats, count=1)[0]
        acts = derive_activation_params(sol, stats)
        f1 = fast(sol, acts)
        fast.reset_caches()
        assert fast(sol, acts) == f1
        assert fast.computed_evaluations == 2


class ReorderedNet(nn.Module):
    """Forward executes `second` before `first` — definition order lies."""

    def __init__(self):
        super().__init__()
        self.first = nn.Linear(12, 12)
        self.second = nn.Linear(12, 12)

    def forward(self, x):
        return self.first(self.second(x))


class TestExecutionOrderGuard:
    def test_reordered_forward_disables_replay_but_stays_correct(self):
        nn.seed(5)
        model = ReorderedNet()
        model.eval()
        images = np.random.default_rng(2).normal(size=(8, 12))
        stats = collect_layer_stats(model, images)
        slow = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=False)
        )
        fast = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=True)
        )
        for sol in _candidates(stats, count=3, seed=1):
            acts = derive_activation_params(sol, stats)
            assert slow(sol, acts) == fast(sol, acts)
        # the guard must have tripped after the first full record pass
        assert not fast.fast


class TestEndToEndSearch:
    def test_search_trajectories_identical(self, bn_setup):
        model, images, _ = bn_setup
        config = LPQConfig(population=3, passes=1, cycles=1, block_size=2,
                           diversity_parents=2, hw_widths=(4, 8), seed=7)
        res_slow = lpq_quantize(model, images, config=config,
                                fitness_config=FitnessConfig(fast=False))
        res_fast = lpq_quantize(model, images, config=config,
                                fitness_config=FitnessConfig(fast=True))
        assert res_slow.fitness == res_fast.fitness
        assert res_slow.history.best_fitness == res_fast.history.best_fitness
        assert res_slow.solution == res_fast.solution


class TestOutputObjectiveEngine:
    """The Fig. 5(a) baseline evaluator shares the incremental engine."""

    @pytest.mark.parametrize("objective", ["mse", "kl", "cosine",
                                           "global_contrastive"])
    def test_bn_model_fast_equals_reference(self, bn_setup, objective):
        from repro.quant import OutputObjectiveEvaluator

        model, images, stats = bn_setup
        slow = OutputObjectiveEvaluator(
            model, images, stats.param_counts, objective,
            FitnessConfig(fast=False),
        )
        fast = OutputObjectiveEvaluator(
            model, images, stats.param_counts, objective,
            FitnessConfig(fast=True),
        )
        for sol in _candidates(stats, count=4, seed=5):
            acts = derive_activation_params(sol, stats)
            assert slow(sol, acts) == fast(sol, acts)

    def test_ln_free_model_fast_equals_reference(
        self, tiny_model, calib_images
    ):
        from repro.nn import quantizable_layers
        from repro.quant import OutputObjectiveEvaluator

        counts = [l.weight.size for _, l in quantizable_layers(tiny_model)]
        stats = collect_layer_stats(tiny_model, calib_images)
        slow = OutputObjectiveEvaluator(
            tiny_model, calib_images, counts, "mse", FitnessConfig(fast=False)
        )
        fast = OutputObjectiveEvaluator(
            tiny_model, calib_images, counts, "mse", FitnessConfig(fast=True)
        )
        for sol in _candidates(stats, count=4, seed=8):
            acts = derive_activation_params(sol, stats)
            assert slow(sol, acts) == fast(sol, acts)

    def test_counter_parity_with_fitness_evaluator(self, bn_setup):
        """Satellite parity: computed_evaluations + perf wiring exist."""
        from repro.perf import reset_perf
        from repro.quant import OutputObjectiveEvaluator

        model, images, stats = bn_setup
        perf = reset_perf()
        evaluator = OutputObjectiveEvaluator(
            model, images, stats.param_counts, "mse"
        )
        sol = _candidates(stats, count=1)[0]
        acts = derive_activation_params(sol, stats)
        f1 = evaluator(sol, acts)
        f2 = evaluator(sol, acts)
        assert f1 == f2
        assert evaluator.evaluations == 2
        assert evaluator.computed_evaluations == 2  # no result memo
        snap = perf.snapshot()
        assert snap["timers"]["objective.evaluate"]["count"] == 2
        assert "objective.memo" not in snap["caches"]

    def test_rejects_unknown_objective(self, bn_setup):
        from repro.quant import OutputObjectiveEvaluator

        model, images, stats = bn_setup
        with pytest.raises(ValueError):
            OutputObjectiveEvaluator(
                model, images, stats.param_counts, "nope"
            )


class TestWeightQuantCache:
    def test_cache_returns_identical_tensors(self, bn_setup):
        from repro.nn import quantizable_layers
        from repro.numerics import lp_quantize

        model, _, stats = bn_setup
        sol = _candidates(stats, count=1)[0]
        cache = WeightQuantCache(max_entries=8)
        layers = quantizable_layers(model)
        for i, (_, layer) in enumerate(layers):
            direct = lp_quantize(layer.weight.data, sol[i]).astype(
                layer.weight.data.dtype
            )
            np.testing.assert_array_equal(
                cache.quantized_weight(layer, sol[i]), direct
            )
            # second lookup is a hit and returns the same array object
            assert cache.quantized_weight(layer, sol[i]) is not None

    def test_lru_eviction_bounds_memory(self, bn_setup):
        from repro.nn import quantizable_layers
        from repro.numerics import LPParams

        model, _, _ = bn_setup
        _, layer = quantizable_layers(model)[0]
        cache = WeightQuantCache(max_entries=2)
        for n in (2, 4, 8):
            cache.quantized_weight(layer, LPParams(n=n, es=0, rs=2))
        assert len(cache) == 2


class TestPopulationVectorized:
    """``evaluate_many`` (stacked-LUT weight prefill + serial replay)
    must be bitwise-equal to calling the evaluator one candidate at a
    time — the vectorized path changes wall clock, never fitness."""

    def test_evaluate_many_equals_serial_loop(self, bn_setup):
        model, images, stats = bn_setup
        sols = _candidates(stats, count=6, seed=11)
        acts = [derive_activation_params(s, stats) for s in sols]
        one_by_one = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=True)
        )
        serial = [one_by_one(s, a) for s, a in zip(sols, acts)]
        batched_eval = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=True)
        )
        assert batched_eval.evaluate_many(sols, acts) == serial
        # second batch on warm caches: still identical
        assert batched_eval.evaluate_many(sols, acts) == serial

    def test_evaluate_many_matches_reference_path(self, bn_setup):
        model, images, stats = bn_setup
        sols = _candidates(stats, count=3, seed=4)
        acts = [derive_activation_params(s, stats) for s in sols]
        reference = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=False)
        )
        fast = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=True)
        )
        assert fast.evaluate_many(sols, acts) == [
            reference(s, a) for s, a in zip(sols, acts)
        ]

    def test_prefill_counts_and_dedupes(self, bn_setup):
        from repro.perf import PerfRegistry

        model, images, stats = bn_setup
        sols = _candidates(stats, count=4, seed=2)
        perf = PerfRegistry()
        evaluator = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=True),
            perf=perf,
        )
        filled = evaluator.prefill_weights(sols)
        assert filled > 0
        assert perf.counter("population.prefill_entries").value == filled
        assert evaluator.prefill_weights(sols) == 0  # warm: nothing to do

    def test_lut_registry_serves_repeat_formats(self, bn_setup):
        from repro.perf import get_perf, reset_perf

        model, images, stats = bn_setup
        sol = _candidates(stats, count=1, seed=8)[0]
        evaluator = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=True)
        )
        evaluator(sol, derive_activation_params(sol, stats))  # build LUTs
        reset_perf()
        evaluator2 = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=True)
        )
        evaluator2(sol, derive_activation_params(sol, stats))
        stats_cache = get_perf().cache("numerics.lut_cache")
        # the process-wide registry answers every repeat format
        assert stats_cache.hits > 0
        assert stats_cache.misses == 0
