"""Tests for the LPQ genetic engine (Steps 1-4) and the high-level API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import quantizable_layers
from repro.numerics import LPParams
from repro.quant import (
    LPQConfig,
    LPQEngine,
    QuantSolution,
    lpq_quantize,
    quantized,
)

FAST = LPQConfig(
    population=6, passes=1, cycles=1, block_size=4, diversity_parents=2, seed=0
)


class BitCounterEvaluator:
    """Deterministic toy fitness: prefers (n−4)² + |sf| — optimum at n=4."""

    def __init__(self):
        self.evaluations = 0

    def __call__(self, solution, act_params=None):
        self.evaluations += 1
        return float(
            sum((p.n - 4) ** 2 + abs(p.sf) for p in solution.layer_params)
        )


class TestEngineMechanics:
    def _engine(self, layers=6, config=FAST):
        return LPQEngine(BitCounterEvaluator(), [0.0] * layers, config)

    def test_initialize_population_size(self):
        eng = self._engine()
        eng.initialize()
        assert len(eng.population) == FAST.population
        # ranked ascending by fitness
        fits = [f for _, f in eng.population]
        assert fits == sorted(fits)

    def test_blocks_cover_all_layers(self):
        eng = self._engine(layers=10)
        blocks = eng._blocks()
        covered = sorted(i for b in blocks for i in b)
        assert covered == list(range(10))
        assert all(len(b) <= FAST.block_size for b in blocks)

    def test_non_blockwise_single_block(self):
        cfg = LPQConfig(
            population=4, passes=1, cycles=1, blockwise=False, seed=0
        )
        eng = self._engine(layers=10, config=cfg)
        assert [list(b) for b in eng._blocks()] == [list(range(10))]

    def test_child_outside_block_copies_best_parent(self):
        eng = self._engine(layers=8)
        eng.initialize()
        best = eng.population[0][0]
        child = eng._make_child(best, eng.population[1][0], range(0, 4))
        for i in range(4, 8):
            assert child[i] == best[i]

    def test_run_improves_fitness(self):
        eng = self._engine(layers=8)
        eng.initialize()
        first = eng.history.best_fitness[0]
        sol, fit = eng.run()
        assert fit <= first
        # toy optimum drives n toward 4
        assert abs(sol.mean_weight_bits() - 4) < abs(8 - 4)

    def test_history_monotone_nonincreasing(self):
        eng = self._engine(layers=8)
        eng.run()
        hist = eng.history.best_fitness
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_population_bounded(self):
        eng = self._engine(layers=8)
        eng.run()
        assert len(eng.population) <= FAST.population

    def test_diversity_off_fewer_evaluations(self):
        cfg_on = LPQConfig(population=4, passes=1, cycles=2, seed=0,
                           diversity=True, diversity_parents=3)
        cfg_off = LPQConfig(population=4, passes=1, cycles=2, seed=0,
                            diversity=False)
        e_on, e_off = BitCounterEvaluator(), BitCounterEvaluator()
        LPQEngine(e_on, [0.0] * 4, cfg_on).run()
        LPQEngine(e_off, [0.0] * 4, cfg_off).run()
        assert e_off.evaluations < e_on.evaluations

    def test_hw_width_constraint_enforced_throughout(self):
        cfg = LPQConfig(population=4, passes=2, cycles=1, seed=1,
                        hw_widths=(2, 4, 8))
        eng = LPQEngine(BitCounterEvaluator(), [0.0] * 6, cfg)
        sol, _ = eng.run()
        assert all(p.n in (2, 4, 8) for p in sol.layer_params)

    def test_seed_reproducible(self):
        s1, f1 = LPQEngine(BitCounterEvaluator(), [0.0] * 5, FAST).run()
        s2, f2 = LPQEngine(BitCounterEvaluator(), [0.0] * 5, FAST).run()
        assert f1 == f2
        assert s1.encode().tolist() == s2.encode().tolist()


class RecordingEvaluator(BitCounterEvaluator):
    """The toy fitness, keeping every candidate it was asked to score."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def __call__(self, solution, act_params=None):
        self.seen.append(solution)
        return super().__call__(solution, act_params)


search_configs = st.builds(
    LPQConfig,
    population=st.integers(2, 8),
    passes=st.integers(1, 2),
    cycles=st.integers(1, 2),
    block_size=st.integers(1, 4),
    diversity_parents=st.integers(1, 5),
    hw_widths=st.sampled_from([None, (4, 8), (2,), (8,)]),
    diversity=st.booleans(),
    blockwise=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)


@settings(max_examples=60, deadline=None)
@given(
    config=search_configs,
    centers=st.lists(st.floats(-6.0, 1.0), min_size=1, max_size=12),
)
def test_search_never_proposes_a_candidate_twice(config, centers):
    """Every candidate carries a freshly drawn ``sf`` in each layer it
    touches (Step 1's ball, Step 2's η perturbation), so no two
    candidates of one search are equal and nothing on the search path
    needs a result memo."""
    evaluator = RecordingEvaluator()
    LPQEngine(evaluator, centers, config).run()
    assert len(set(evaluator.seen)) == len(evaluator.seen)


class TestRegenerationEquations:
    """Eqs. 2-5: child field ranges derived from the parents."""

    def _regen(self, p1, p2, seed=0, trials=200):
        eng = LPQEngine(
            BitCounterEvaluator(), [0.0],
            LPQConfig(seed=seed, hw_widths=None),
        )
        return [eng._regenerate_layer(p1, p2, 0.0) for _ in range(trials)]

    def test_n_within_minmax_pm1(self):
        p1, p2 = LPParams(4, 1, 2, 0.0), LPParams(6, 1, 3, 0.0)
        children = self._regen(p1, p2)
        assert {c.n for c in children} <= {3, 4, 5, 6, 7}

    def test_es_within_minmax_pm1(self):
        p1, p2 = LPParams(8, 1, 3, 0.0), LPParams(8, 3, 3, 0.0)
        children = self._regen(p1, p2)
        assert {c.es for c in children} <= {0, 1, 2, 3, 4}

    def test_rs_bounded_by_mean_plus_one(self):
        p1, p2 = LPParams(8, 1, 4, 0.0), LPParams(8, 1, 6, 0.0)
        children = self._regen(p1, p2)
        assert max(c.rs for c in children) <= int(np.ceil((4 + 6) / 2)) + 1

    def test_sf_near_parent_mean(self):
        p1, p2 = LPParams(8, 1, 3, 2.0), LPParams(8, 1, 3, 4.0)
        children = self._regen(p1, p2)
        for c in children:
            assert abs(c.sf - 3.0) <= 1e-3 + 1e-9


class TestLpqQuantizeEndToEnd:
    def test_full_pipeline_on_tiny_model(self, tiny_model, calib_images, val_data):
        from repro.models.zoo import evaluate

        res = lpq_quantize(tiny_model, calib_images, config=FAST)
        assert len(res.solution) == len(quantizable_layers(tiny_model))
        assert len(res.act_params) == len(res.solution)
        assert res.evaluations > 0
        images, labels = val_data
        fp_acc = evaluate(tiny_model, images, labels)
        with quantized(tiny_model, res.solution, res.act_params):
            q_acc = evaluate(tiny_model, images, labels)
        # searched mixed precision keeps most of the accuracy
        assert q_acc >= fp_acc - 20.0
        assert res.mean_weight_bits <= 8.0

    def test_baseline_objective_pipeline(self, tiny_model, calib_images):
        res = lpq_quantize(
            tiny_model, calib_images, config=FAST, objective="mse"
        )
        assert np.isfinite(res.fitness)

    def test_rejects_unknown_objective(self, tiny_model, calib_images):
        with pytest.raises(ValueError):
            lpq_quantize(
                tiny_model, calib_images, config=FAST, objective="nope"
            )

    def test_compression_achieved(self, tiny_model, calib_images):
        res = lpq_quantize(tiny_model, calib_images, config=FAST)
        fp_mb = sum(res.stats.param_counts) * 4 / 1e6
        assert res.model_size_mb() < fp_mb / 3  # ≥3x smaller than FP32
